//! Property test for [`hxharness::Job`], the one sweep path both `hx
//! sweep` and `hx serve` drive: whatever subset of points the store
//! already answers, and in whatever order — with whatever duplicates,
//! stale indices, panics and malformed rows — the remaining outcomes
//! arrive, the sink sees every index exactly once, in spec order, with
//! the row of the *first* outcome that reached the slot.
//!
//! No point is simulated: a fill takes any row that names the slot's
//! digest, so rows are fabricated and the test runs thousands of fills.

use std::sync::atomic::{AtomicU64, Ordering};

use hxharness::spec::Axes;
use hxharness::{digest_hex, ExperimentSpec, Fill, Job, Kind, NetworkSpec, Store, StoreMeta};
use hxsim::{SimConfig, SteadyOpts};
use proptest::prelude::*;

/// A spec with `n` points (one per seed).
fn spec(n: u64) -> ExperimentSpec {
    ExperimentSpec {
        name: "job_props".to_string(),
        kind: Kind::Steady,
        description: String::new(),
        network: NetworkSpec {
            dims: 2,
            width: 2,
            terminals: 1,
        },
        axes: Axes {
            patterns: vec!["UR".to_string()],
            algos: vec!["DOR".to_string()],
            loads: vec![0.1],
            seeds: (1..=n).collect(),
            fails: vec![0],
            router_fails: vec![0],
            retransmit: vec![0],
        },
        sim: SimConfig::default(),
        steady: SteadyOpts::default(),
        fault: Default::default(),
    }
}

/// A row `Job::fill` accepts for `digest`; `tag` tells fills apart.
fn row(digest: u64, tag: &str) -> String {
    format!(
        "{{\"schema_version\":{},\"digest\":\"{}\",\"tag\":\"{tag}\"}}",
        hxsim::SCHEMA_VERSION,
        digest_hex(digest)
    )
}

/// What the model expects a slot to hold.
#[derive(Clone, Debug, PartialEq)]
enum Slot {
    Row(String),
    Failed(String),
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sink_sees_every_index_once_in_order_with_the_first_outcome(
        n in 0u64..=12,
        cached_mask in any::<u16>(),
        ops in prop::collection::vec((any::<u16>(), 0u8..5), 0..=40),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "hx_job_props_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        let spec = spec(n);
        let n = n as usize;

        // An uncached job tells us the digests; pre-answer a random subset.
        let digests: Vec<u64> = {
            let cold = Job::new(&spec, None);
            (0..n).map(|i| cold.digest(i)).collect()
        };
        let mut model: Vec<Option<Slot>> = vec![None; n];
        for i in (0..n).filter(|i| cached_mask & (1 << i) != 0) {
            let meta = StoreMeta {
                kind: "store_meta",
                digest: digest_hex(digests[i]),
                experiment: "earlier".to_string(),
                pattern: "UR".to_string(),
                algo: "DOR".to_string(),
                load: 0.1,
                seed: i as u64 + 1,
                fails: 0,
                elapsed_ms: 0,
            };
            let cached = row(digests[i], "cached");
            store.insert(digests[i], &meta, &cached).unwrap();
            model[i] = Some(Slot::Row(cached));
        }

        let mut job = Job::new(&spec, Some(&store));
        prop_assert_eq!(job.total(), n);
        prop_assert_eq!(job.cached(), model.iter().flatten().count());
        let expected_todo: Vec<usize> = (0..n).filter(|&i| model[i].is_none()).collect();
        prop_assert_eq!(job.todo(), expected_todo);

        let mut sunk: Vec<(usize, String)> = Vec::new();
        let drain = |job: &mut Job, sunk: &mut Vec<(usize, String)>| {
            job.drain(|i, r| {
                sunk.push((i, r.to_string()));
                Ok::<(), ()>(())
            })
            .unwrap()
        };
        drain(&mut job, &mut sunk);

        // The drawn outcomes (any index, in range or not, any number of
        // times), then one sound outcome per point so the job completes.
        let drawn = ops.iter().enumerate().map(|(k, &(at, what))| (at as usize % (n + 2), what, k));
        let finish = (0..n).map(|i| (i, 0u8, usize::MAX));
        for (index, what, k) in drawn.chain(finish).collect::<Vec<_>>() {
            let digest = digests.get(index).copied().unwrap_or(0);
            let (outcome, slot) = match what {
                0 | 1 => {
                    let r = row(digest, &format!("fill{k}"));
                    (Ok((r.clone(), 7)), Slot::Row(r))
                }
                2 => (Err(format!("panic {k}")), Slot::Failed(format!("panic {k}"))),
                3 => (
                    Ok((format!("{}\n", row(digest, "split")), 7)),
                    Slot::Failed("line break".to_string()),
                ),
                _ => (
                    Ok((row(digest ^ 1, "mislabeled"), 7)),
                    Slot::Failed("digest".to_string()),
                ),
            };
            let fresh = model.get(index).is_some_and(Option::is_none);
            let before = sunk.len();
            let got = job.fill(index, outcome, Some(&store)).unwrap();
            match (&got, fresh, &slot) {
                (Fill::Dropped, false, _) | (Fill::Executed, true, Slot::Row(_)) => {}
                (Fill::Failed(msg), true, Slot::Failed(want)) => {
                    prop_assert!(msg.contains(want), "{msg:?} lacks {want:?}");
                }
                _ => prop_assert!(false, "fill({index}) = {got:?}, fresh = {fresh}, wanted {slot:?}"),
            }
            if fresh {
                model[index] = Some(slot);
            }
            drain(&mut job, &mut sunk);
            // A fill releases rows only by completing the prefix.
            let prefix = model.iter().take_while(|s| s.is_some()).count();
            prop_assert_eq!(sunk.len(), prefix, "{before} rows had left before");
        }

        prop_assert!(job.is_complete());
        prop_assert_eq!(job.cached() + job.executed() + job.failed(), job.total());
        prop_assert_eq!(
            job.failed(),
            model.iter().filter(|s| matches!(s, Some(Slot::Failed(_)))).count()
        );
        prop_assert_eq!(sunk.len(), n);
        for (i, (index, got)) in sunk.iter().enumerate() {
            prop_assert_eq!(*index, i, "rows must leave in spec order");
            match model[i].as_ref().expect("every slot was filled") {
                // The first outcome to reach the slot is the one that left.
                Slot::Row(want) => {
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(store.lookup(digests[i]), Some(want.clone()));
                }
                Slot::Failed(why) => {
                    prop_assert!(got.contains("\"kind\":\"failed\"") && got.contains(why), "{got}");
                    prop_assert!(got.contains(&digest_hex(digests[i])));
                    prop_assert!(!got.contains('\n'));
                    prop_assert!(store.lookup(digests[i]).is_none(), "a failure was cached");
                }
            }
        }
        let rows: Vec<String> = sunk.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(job.into_rows(), rows);
        std::fs::remove_dir_all(&dir).ok();
    }
}
