//! Model-based property test for the event queue — the contract the
//! event-driven engine's determinism rests on.
//!
//! The model is `BTreeMap<cycle, BTreeSet<endpoint>>` plus the drain
//! cursor: a wake is filed under `max(t, cursor)`, a pop at `now` removes
//! every cycle `<= now` and moves the cursor to `now + 1` (never
//! backwards). Random interleavings of `schedule` and `pop_due`, with
//! `next_time` read after each, must agree with it, which states every
//! law at once:
//!
//! 1. A popped set is ascending and duplicate-free.
//! 2. Nothing is lost and nothing is early: a pop returns exactly the
//!    endpoints filed at or before `now`, and a wake with `t > now` stays.
//! 3. A wake scheduled behind the cursor is delivered by the next pop
//!    that reaches the cursor.
//! 4. `next_time` is the model's minimum (a behind-cursor wake reports the
//!    cursor), so skipping the clock straight to it never hops a wake.
//! 5. Wakes beyond the calendar's horizon migrate in and drain at exactly
//!    their cycle, whatever the pop gaps (0 to three horizons).

use std::collections::{BTreeMap, BTreeSet};

use hxsim::{EventKind, EventQueue};
use proptest::prelude::*;

/// The calendar length the distances below are chosen around.
const HORIZON: u64 = EventQueue::HORIZON;
/// More than one 64-bit word of endpoints, so word boundaries are crossed.
const ENDPOINTS: u32 = 150;

#[derive(Clone, Debug)]
enum Op {
    /// Schedule `endpoint` at `cursor + ahead - behind` (saturating).
    Schedule {
        ahead: u64,
        behind: u64,
        endpoint: u32,
    },
    /// `pop_due(last_now + gap)`.
    Pop { gap: u64 },
}

/// One of `choices` ranges picked by `sel`, then `x` folded into it — the
/// vendored proptest has no weighted union, so weights are written as
/// repeated entries.
fn pick(choices: &[std::ops::Range<u64>], sel: u8, x: u64) -> u64 {
    let r = &choices[sel as usize % choices.len()];
    r.start + x % (r.end - r.start)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let sel = (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>());
    let x = (any::<u64>(), any::<u64>(), any::<u64>());
    (sel, x).prop_map(|(sel, x)| {
        let (sel, x) = ([sel.0, sel.1, sel.2, sel.3], [x.0, x.1, x.2]);
        if sel[0] % 3 == 0 {
            // Gaps: mostly a cycle or two, some inside the horizon, some
            // beyond it — where every row is due at once.
            let gaps = [0..4, 0..4, 0..4, 0..HORIZON, HORIZON - 1..HORIZON * 3 + 1];
            return Op::Pop {
                gap: pick(&gaps, sel[1], x[0]),
            };
        }
        // Distances: mostly inside the horizon, some straddling its edge,
        // some far beyond; a quarter are then pulled behind the cursor.
        let near = 0..HORIZON;
        let aheads = [
            near.clone(),
            near.clone(),
            near,
            HORIZON - 2..HORIZON + 3,
            HORIZON..HORIZON * 4,
        ];
        let behinds = [0..1, 0..1, 0..1, 0..HORIZON * 2];
        // A handful of endpoints is drawn often, so duplicates are common.
        let endpoints = [0..4, 62..66, 0..ENDPOINTS as u64];
        Op::Schedule {
            ahead: pick(&aheads, sel[1], x[0]),
            behind: pick(&behinds, sel[2], x[1]),
            endpoint: pick(&endpoints, sel[3], x[2]) as u32,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn queue_agrees_with_the_ordered_map_model(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut q = EventQueue::new(ENDPOINTS as usize);
        let mut model: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        let (mut cursor, mut last_now) = (0u64, 0u64);
        let mut due = Vec::new();
        for op in ops {
            match op {
                Op::Schedule { ahead, behind, endpoint } => {
                    let t = (cursor + ahead).saturating_sub(behind);
                    q.schedule(t, endpoint, EventKind::Wake);
                    model.entry(t.max(cursor)).or_default().insert(endpoint);
                }
                Op::Pop { gap } => {
                    let now = last_now + gap;
                    q.pop_due(now, &mut due);
                    let later = model.split_off(&(now + 1));
                    let want: BTreeSet<u32> = model.into_values().flatten().collect();
                    model = later;
                    prop_assert!(due.windows(2).all(|w| w[0] < w[1]), "not ascending: {:?}", due);
                    prop_assert_eq!(&due, &want.into_iter().collect::<Vec<_>>(), "pop at {}", now);
                    cursor = cursor.max(now + 1);
                    last_now = now;
                }
            }
            // Law 4, after every operation.
            prop_assert_eq!(q.next_time(), model.keys().next().copied());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        // Skipping straight to `next_time` drains the model cycle by cycle.
        while let Some(t) = q.next_time() {
            q.pop_due(t, &mut due);
            let want = model.remove(&t).expect("next_time named a cycle the model has");
            prop_assert_eq!(&due, &want.into_iter().collect::<Vec<_>>(), "skip to {}", t);
        }
        prop_assert!(model.is_empty(), "queue lost {:?}", model);
    }
}
