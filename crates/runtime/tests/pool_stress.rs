//! Adversarial stress test for the persistent worker pool.
//!
//! `Pool::map` and `Pool::scope_chunks` queue borrowed closures on
//! process-wide workers after erasing their lifetimes (`shared.rs`); the
//! erasure is sound only because every caller blocks until each of its own
//! jobs has signalled, panic or not. These tests drive that protocol from
//! several OS threads at once, nest sections inside tasks, and interleave
//! panicking jobs with other callers' live borrows. Every non-panicking
//! caller must get exactly its serial result, and the pool must keep
//! serving afterwards. No sleeps and no timing assertions: the schedule is
//! whatever the OS makes of it, and only outputs are checked.

use pelican_runtime::{Pool, MAX_WORKERS};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::{Barrier, Once};
use std::thread;

const CALLERS: usize = 6;
const ROUNDS: usize = 1000;
const INJECTED: &str = "injected stress failure";

/// Keeps the expected panics (the injected ones and the pool's re-raise
/// of them) off stderr; every other panic reaches the default hook.
fn silence_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let expected = payload.downcast_ref::<&str>() == Some(&INJECTED)
                || payload.downcast_ref::<String>().is_some_and(|m| {
                    m == "pool worker panicked" || m == "pool chunk worker panicked"
                });
            if !expected {
                default(info);
            }
        }));
    });
}

/// A buffer whose contents depend on its caller, so a job that read
/// another caller's borrow would produce a wrong result.
fn buffer(caller: usize, len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((caller as u64) << 48))
        .collect()
}

/// Order-sensitive hash of a slice.
fn digest(slice: &[u64], salt: usize) -> u64 {
    slice
        .iter()
        .fold(salt as u64, |h, &v| h.rotate_left(5) ^ v)
        .wrapping_mul(0x0100_0000_01B3)
}

fn stamp(v: u64, chunk: usize) -> u64 {
    v.rotate_left(chunk as u32 % 64) ^ chunk as u64
}

/// One `map` and one `scope_chunks` over `data` on `workers` workers,
/// each checked against its serial result.
fn checked_round(data: &[u64], workers: usize, round: usize) {
    let tasks = 3 + round % 17;
    let span = data.len() / tasks;
    let task = |i: usize| digest(&data[i * span..(i + 1) * span], i);
    let serial: Vec<u64> = (0..tasks).map(task).collect();
    assert_eq!(
        Pool::new(workers).map(tasks, task),
        serial,
        "map on {workers} workers, round {round}"
    );

    let chunk = 1 + round % 13;
    let mut out = data.to_vec();
    Pool::new(workers).scope_chunks(&mut out, chunk, |idx, c| {
        c.iter_mut().for_each(|v| *v = stamp(*v, idx));
    });
    let serial: Vec<u64> = data
        .chunks(chunk)
        .enumerate()
        .flat_map(|(idx, c)| c.iter().map(move |&v| stamp(v, idx)))
        .collect();
    assert_eq!(
        out, serial,
        "scope_chunks on {workers} workers, round {round}"
    );
}

fn assert_pool_still_serves() {
    for workers in [2, MAX_WORKERS] {
        checked_round(&buffer(99, 512), workers, 7);
    }
}

/// Worker count for a caller's round, cycling through `2..=MAX_WORKERS`.
fn workers_for(caller: usize, round: usize) -> usize {
    2 + (caller + round) % (MAX_WORKERS - 1)
}

#[test]
fn concurrent_callers_get_their_serial_results() {
    let start = Barrier::new(CALLERS);
    thread::scope(|s| {
        for caller in 0..CALLERS {
            let start = &start;
            s.spawn(move || {
                let data = buffer(caller, 256 + 37 * caller);
                start.wait();
                for round in 0..ROUNDS {
                    checked_round(&data, workers_for(caller, round), round);
                }
            });
        }
    });
    assert_pool_still_serves();
}

#[test]
fn nested_sections_run_inline_on_the_worker() {
    let data = buffer(7, 600);
    let caller = thread::current().id();
    let outer = Pool::new(4).map(12, |i| {
        let worker = thread::current().id();
        let slice = &data[i * 50..(i + 1) * 50];
        let inner = Pool::new(4).map(5, |j| {
            assert_eq!(thread::current().id(), worker, "nested map left its worker");
            digest(&slice[j * 10..(j + 1) * 10], j)
        });
        let mut stamped = slice.to_vec();
        Pool::new(3).scope_chunks(&mut stamped, 7, |idx, c| {
            assert_eq!(
                thread::current().id(),
                worker,
                "nested chunk left its worker"
            );
            c.iter_mut().for_each(|v| *v = stamp(*v, idx));
        });
        (worker, inner, stamped)
    });
    for (i, (worker, inner, stamped)) in outer.into_iter().enumerate() {
        assert_ne!(worker, caller, "the caller claimed a task");
        let slice = &data[i * 50..(i + 1) * 50];
        let serial: Vec<u64> = (0..5)
            .map(|j| digest(&slice[j * 10..(j + 1) * 10], j))
            .collect();
        assert_eq!(inner, serial, "nested map, task {i}");
        let serial: Vec<u64> = slice
            .chunks(7)
            .enumerate()
            .flat_map(|(idx, c)| c.iter().map(move |&v| stamp(v, idx)))
            .collect();
        assert_eq!(stamped, serial, "nested scope_chunks, task {i}");
    }
    assert_pool_still_serves();
}

#[test]
fn panicking_jobs_leave_other_callers_borrows_intact() {
    silence_injected_panics();
    let start = Barrier::new(CALLERS);
    thread::scope(|s| {
        for caller in 0..CALLERS {
            let start = &start;
            s.spawn(move || {
                let data = buffer(caller, 300 + 11 * caller);
                start.wait();
                for round in 0..ROUNDS {
                    let workers = workers_for(caller, round);
                    if caller.is_multiple_of(2) {
                        checked_round(&data, workers, round);
                        continue;
                    }
                    // This caller's jobs panic while its own buffer and the
                    // even callers' buffers are borrowed by running jobs.
                    let bad = round % 8;
                    let err = if round.is_multiple_of(2) {
                        catch_unwind(AssertUnwindSafe(|| {
                            Pool::new(workers).map(8, |i| {
                                if i == bad {
                                    panic_any(INJECTED);
                                }
                                digest(&data[i * 30..(i + 1) * 30], i)
                            })
                        }))
                        .map(drop)
                    } else {
                        let mut out = data.clone();
                        catch_unwind(AssertUnwindSafe(|| {
                            Pool::new(workers).scope_chunks(&mut out, 37, |idx, c| {
                                if idx == bad {
                                    panic_any(INJECTED);
                                }
                                c.iter_mut().for_each(|v| *v = stamp(*v, idx));
                            })
                        }))
                    };
                    let msg = err.expect_err("an injected panic must reach its caller");
                    let msg = msg.downcast_ref::<String>().map(String::as_str);
                    assert!(
                        matches!(
                            msg,
                            Some("pool worker panicked" | "pool chunk worker panicked")
                        ),
                        "{msg:?}"
                    );
                    // The same caller is served normally right after.
                    checked_round(&data, workers, round);
                }
            });
        }
    });
    assert_pool_still_serves();
}
