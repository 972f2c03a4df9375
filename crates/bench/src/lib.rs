//! # hxbench — experiment harnesses for the tables and figures no sweep spec expresses
//!
//! One binary per artifact (see DESIGN.md's experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig2_scalability`  | Figure 2 — max nodes vs router radix |
//! | `fig2_sim`          | Figure 2 (simulated) — scale ladder to 100k+ terminals |
//! | `fig3_cabling`      | Figure 3 — Dragonfly:HyperX cabling cost |
//! | `fig4_topologies`   | Figure 4 — stencil time across topologies |
//! | `fig8_stencil`      | Figure 8 — stencil phase execution times |
//! | `tab1_comparison`   | Table 1 — implementation requirements |
//! | `sec42_atomic_queue`| Section 4.2 — atomic-allocation ceiling |
//! | `ablation`          | ablations: OmniWAR deroute budget, deroute restriction, VC budget |
//! | `engine_ratio`      | event vs cycle engine speed by load |
//!
//! Figure 6, the fault-resilience study and the chaos campaign are not
//! here: they are sweeps, declared in `experiments/*.toml`, run by
//! `hx sweep` (or `hx submit`) and tabulated by `hx report` — all in
//! `hxharness`.
//!
//! Each binary accepts the uniform switches `--full` (the paper's
//! 4,096-node configuration; default is a reduced 256-node network that
//! preserves the qualitative shapes), `--seed N` and `--json PATH` for
//! machine-readable output — see [`CommonArgs`] — and exits with
//! status 2 on any option it does not accept. This library holds
//! the shared plumbing: the CLI surface and the table renderer
//! (re-exported from `hxharness`), an order-preserving parallel map over
//! `std::thread::scope`, and JSONL output.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hxtopo::HyperX;

mod args;

pub use args::{Args, CommonArgs};
pub use hxharness::render_table;

/// The evaluated HyperX network: the paper's 8x8x8 with 8 terminals per
/// router (4,096 nodes) at full scale, a 4x4x4 with 4 terminals per router
/// (256 nodes) by default.
pub fn evaluation_hyperx(full: bool) -> Arc<HyperX> {
    if full {
        Arc::new(HyperX::uniform(3, 8, 8))
    } else {
        Arc::new(HyperX::uniform(3, 4, 4))
    }
}

/// Order-preserving parallel map over `items`, using all cores (scoped
/// threads pulling work off a shared index).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    parallel_map_threads(items, threads, f)
}

/// [`parallel_map`] with an explicit worker-thread count. Results are
/// slotted by item index, so the output — and any per-item seeded
/// simulation inside `f` — is identical for every thread count; the
/// determinism suite in `crates/bench/tests/determinism.rs` pins this.
/// A panic in `f` re-raises in the caller once every worker has stopped.
pub fn parallel_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("work item taken twice");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("missing result"))
        .collect()
}

/// Writes serializable rows as JSON lines to `path` (if given). Every
/// row leads with `schema_version` (via [`hxsim::versioned_json_row`]),
/// like all other JSONL the workspace emits under `results/`.
pub fn write_jsonl<T: serde::Serialize>(path: Option<&str>, rows: &[T]) {
    let Some(path) = path else { return };
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for row in rows {
        writeln!(f, "{}", hxsim::versioned_json_row(row)).expect("write row");
    }
    eprintln!("wrote {} rows to {path}", rows.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_thread_count_does_not_change_results() {
        for n in [0u64, 3, 64] {
            let items: Vec<u64> = (0..n).collect();
            let one = parallel_map_threads(items.clone(), 1, |x| x * x + 1);
            assert_eq!(one, items.iter().map(|x| x * x + 1).collect::<Vec<_>>());
            // 5 and 8 threads exceed the item count for n = 0 and 3.
            for threads in [5, 8] {
                assert_eq!(
                    parallel_map_threads(items.clone(), threads, |x| x * x + 1),
                    one
                );
            }
        }
    }

    /// The panic of one item reaches the caller, re-raised by
    /// `std::thread::scope` once the other workers stop, instead of being
    /// swallowed (into a missing result, say — which would panic with a
    /// different message).
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn parallel_map_propagates_item_panic() {
        parallel_map_threads((0..16).collect::<Vec<u64>>(), 4, |x| {
            assert_ne!(x, 7, "item 7 failed");
            x
        });
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jsonl_rows_carry_schema_version() {
        #[derive(serde::Serialize)]
        struct R {
            x: u64,
        }
        let path = std::env::temp_dir().join(format!("hxbench_jsonl_{}.jsonl", std::process::id()));
        write_jsonl(path.to_str(), &[R { x: 7 }]);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            text,
            format!("{{\"schema_version\":{},\"x\":7}}\n", hxsim::SCHEMA_VERSION)
        );
    }

    #[test]
    fn evaluation_sizes() {
        use hxtopo::Topology;
        assert_eq!(evaluation_hyperx(false).num_terminals(), 256);
        assert_eq!(evaluation_hyperx(true).num_terminals(), 4096);
    }
}
