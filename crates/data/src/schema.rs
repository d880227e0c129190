//! Dataset schemas: feature names, kinds and categorical vocabularies.

use crate::dataset::Value;

/// The kind of a raw feature before numerical conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureKind {
    /// A continuous or count-valued numeric feature.
    Numeric,
    /// A textual feature with a fixed vocabulary (e.g. `tcp`, `http`);
    /// one-hot encoded during preprocessing.
    Categorical(Vec<String>),
}

/// One raw feature column.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpec {
    /// Column name, matching the real dataset's documentation.
    pub name: String,
    /// Numeric or categorical-with-vocabulary.
    pub kind: FeatureKind,
}

impl FeatureSpec {
    /// A numeric feature.
    pub fn numeric(name: &str) -> Self {
        Self {
            name: name.to_string(),
            kind: FeatureKind::Numeric,
        }
    }

    /// A categorical feature with the given vocabulary.
    pub fn categorical(name: &str, vocab: Vec<String>) -> Self {
        Self {
            name: name.to_string(),
            kind: FeatureKind::Categorical(vocab),
        }
    }

    /// Width this feature contributes after one-hot encoding.
    pub fn encoded_width(&self) -> usize {
        match &self.kind {
            FeatureKind::Numeric => 1,
            FeatureKind::Categorical(vocab) => vocab.len(),
        }
    }
}

/// One traffic class (label) of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Class name (e.g. `Normal`, `DoS`).
    pub name: String,
    /// Relative frequency in the generated data (need not be normalised).
    pub weight: f32,
    /// Whether records of this class are attacks (everything except the
    /// normal class).
    pub is_attack: bool,
}

/// A complete dataset schema: ordered features plus the label classes.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Human-readable dataset name.
    pub name: String,
    /// Feature columns, in order.
    pub features: Vec<FeatureSpec>,
    /// Label classes; index is the class id used in labels.
    pub classes: Vec<ClassSpec>,
}

impl Schema {
    /// Total width after one-hot encoding every categorical feature.
    pub fn encoded_width(&self) -> usize {
        self.features.iter().map(FeatureSpec::encoded_width).sum()
    }

    /// Number of raw feature columns.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// Number of label classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Index of the (single) non-attack class.
    ///
    /// # Panics
    ///
    /// Panics if the schema has no normal class.
    pub fn normal_class(&self) -> usize {
        self.classes
            .iter()
            .position(|c| !c.is_attack)
            .expect("schema must define a normal class")
    }

    /// Looks up a feature index by name.
    pub fn feature_index(&self, name: &str) -> Option<usize> {
        self.features.iter().position(|f| f.name == name)
    }

    /// Whether `record` fits this schema: one value per feature, each of
    /// its feature's kind, numerics finite, categorical indices inside the
    /// vocabulary. These are the records the CSV loader accepts; a
    /// non-finite numeric would turn every logit of its row into NaN.
    pub fn admits(&self, record: &[Value]) -> bool {
        record.len() == self.feature_count()
            && record
                .iter()
                .zip(&self.features)
                .all(|(v, f)| match (&f.kind, v) {
                    (FeatureKind::Numeric, Value::Num(x)) => x.is_finite(),
                    (FeatureKind::Categorical(vocab), Value::Cat(i)) => *i < vocab.len(),
                    _ => false,
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_schema() -> Schema {
        Schema {
            name: "tiny".into(),
            features: vec![
                FeatureSpec::numeric("duration"),
                FeatureSpec::categorical("proto", vec!["tcp".into(), "udp".into()]),
                FeatureSpec::numeric("bytes"),
            ],
            classes: vec![
                ClassSpec {
                    name: "Normal".into(),
                    weight: 1.0,
                    is_attack: false,
                },
                ClassSpec {
                    name: "DoS".into(),
                    weight: 1.0,
                    is_attack: true,
                },
            ],
        }
    }

    #[test]
    fn encoded_width_sums_numeric_and_vocab() {
        assert_eq!(tiny_schema().encoded_width(), 1 + 2 + 1);
    }

    #[test]
    fn normal_class_found() {
        assert_eq!(tiny_schema().normal_class(), 0);
    }

    #[test]
    fn feature_index_lookup() {
        let s = tiny_schema();
        assert_eq!(s.feature_index("bytes"), Some(2));
        assert_eq!(s.feature_index("nope"), None);
        assert_eq!(s.feature_count(), 3);
        assert_eq!(s.class_count(), 2);
    }

    #[test]
    fn admits_only_records_that_fit() {
        let s = tiny_schema();
        assert!(s.admits(&[Value::Num(1.0), Value::Cat(1), Value::Num(2.0)]));
        assert!(!s.admits(&[Value::Num(1.0), Value::Cat(1)]), "arity");
        assert!(
            !s.admits(&[Value::Num(1.0), Value::Cat(2), Value::Num(2.0)]),
            "vocabulary"
        );
        assert!(
            !s.admits(&[Value::Cat(0), Value::Cat(1), Value::Num(2.0)]),
            "kind"
        );
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(!s.admits(&[Value::Num(x), Value::Cat(1), Value::Num(2.0)]));
            assert!(!s.admits(&[Value::Num(1.0), Value::Cat(1), Value::Num(x)]));
        }
    }

    #[test]
    #[should_panic(expected = "normal class")]
    fn all_attack_schema_panics() {
        let mut s = tiny_schema();
        s.classes[0].is_attack = true;
        s.normal_class();
    }
}
