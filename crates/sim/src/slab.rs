//! FIFO lists through one slab of records: a router's input VCs hold
//! their packets this way (`router.rs`), and the output queues and
//! channels every flit past a crossbar (`channel.rs`): one node per flit
//! from crossbar exit to wire, moving from list to list
//! ([`Slab::move_front`]). Each list is two slot
//! numbers, linked through a `u32` every record carries. A removed
//! record's slot goes on a LIFO free list that the next push, onto any
//! list, reuses first, so the slab stops growing at the peak count of
//! records held at once; a full slab grows by a quarter, not by doubling,
//! so it stays near that peak.

use std::iter::successors;
use std::ops::{Index, IndexMut};

/// Ends a list; as a list's `first`, marks it empty.
pub(crate) const NIL: u32 = u32::MAX;

/// A record carrying its own link: to the next record of its list, or to
/// the next free slot. A trait, not a wrapper, so the link packs into the
/// record's padding.
pub trait Linked: Copy {
    fn next(&self) -> u32;
    fn set_next(&mut self, next: u32);
}

/// One list's first and last slot ([`NIL`] when empty).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct List {
    pub(crate) first: u32,
    pub(crate) last: u32,
}

impl List {
    pub(crate) const EMPTY: List = List {
        first: NIL,
        last: NIL,
    };
}

/// The records of many [`List`]s, and a free list through the rest.
#[derive(Debug)]
pub struct Slab<T> {
    items: Vec<T>,
    free: u32,
}

impl<T: Linked> Index<u32> for Slab<T> {
    type Output = T;
    #[inline]
    fn index(&self, slot: u32) -> &T {
        &self.items[slot as usize]
    }
}

impl<T: Linked> IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, slot: u32) -> &mut T {
        &mut self.items[slot as usize]
    }
}

impl<T: Linked> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: NIL,
        }
    }

    /// Appends `item` to `list` in the last freed slot, or else in a new
    /// one, and returns the slot.
    #[inline]
    pub(crate) fn push_back(&mut self, list: &mut List, mut item: T) -> u32 {
        item.set_next(NIL);
        let s = if self.free != NIL {
            let s = self.free;
            self.free = self[s].next();
            self[s] = item;
            s
        } else {
            if self.items.len() == self.items.capacity() {
                self.items.reserve_exact((self.items.len() / 4).max(8));
            }
            self.items.push(item);
            (self.items.len() - 1) as u32
        };
        match list.last {
            NIL => list.first = s,
            last => self[last].set_next(s),
        }
        list.last = s;
        s
    }

    /// Unlinks `slot`, whose predecessor on `list` is `prev` ([`NIL`] if
    /// it is first), frees it and returns its record.
    #[inline]
    pub(crate) fn unlink(&mut self, list: &mut List, prev: u32, slot: u32) -> T {
        let item = self[slot];
        match prev {
            NIL => list.first = item.next(),
            prev => self[prev].set_next(item.next()),
        }
        if list.last == slot {
            list.last = prev;
        }
        let free = std::mem::replace(&mut self.free, slot);
        self[slot].set_next(free);
        item
    }

    /// Unlinks, frees and returns `list`'s first record.
    #[inline]
    pub(crate) fn pop_front(&mut self, list: &mut List) -> Option<T> {
        (list.first != NIL).then(|| self.unlink(list, NIL, list.first))
    }

    /// Relinks `from`'s first record to the back of `to`, keeping its slot,
    /// and returns the slot. Neither frees nor allocates.
    #[inline]
    pub(crate) fn move_front(&mut self, from: &mut List, to: &mut List) -> u32 {
        let s = from.first;
        debug_assert!(s != NIL, "move_front from an empty list");
        from.first = self[s].next();
        if from.first == NIL {
            from.last = NIL;
        }
        self[s].set_next(NIL);
        match to.last {
            NIL => to.first = s,
            last => self[last].set_next(s),
        }
        to.last = s;
        s
    }

    /// `list`'s first record.
    #[inline]
    pub(crate) fn front(&self, list: List) -> Option<&T> {
        (list.first != NIL).then(|| &self[list.first])
    }

    /// `list`'s slots, first to last.
    pub(crate) fn iter(&self, list: List) -> impl Iterator<Item = u32> + '_ {
        let first = (list.first != NIL).then_some(list.first);
        successors(first, |&s| Some(self[s].next()).filter(|&n| n != NIL))
    }

    /// Walks `lists` and the free list, at most one step per slot each,
    /// and pushes a line starting with `what` onto `errs` for
    /// - a slot on two lists, or a link past the end (the walk stops);
    /// - a list whose `last` is not where its walk ends;
    /// - a slot on no list (leaked; the first one).
    ///
    /// `name(k)` names list `k`. Returns whether all is sound, so the
    /// caller may walk the lists.
    pub(crate) fn audit(
        &self,
        what: &str,
        lists: impl IntoIterator<Item = List>,
        name: impl Fn(usize) -> String,
        errs: &mut Vec<String>,
    ) -> bool {
        let (before, mut on) = (errs.len(), vec![None; self.items.len()]);
        // `usize::MAX` is the free list.
        let label = |k| match k {
            usize::MAX => "the free list".to_string(),
            k => format!("{}'s list", name(k)),
        };
        // Claims list `k`'s slots; returns its tail, or `None` on a break.
        let mut walk = |k: usize, mut s: u32, errs: &mut Vec<String>| {
            let mut tail = NIL;
            while s != NIL {
                let (at, n) = (|| label(k), on.len());
                let err = match on.get(s as usize) {
                    None => format!("{} links to node {s}, past the slab's {n} nodes", at()),
                    Some(&Some(held)) => {
                        format!("node {s} on {} is already on {}", at(), label(held))
                    }
                    Some(None) => {
                        on[s as usize] = Some(k);
                        (tail, s) = (s, self[s].next());
                        continue;
                    }
                };
                errs.push(format!("{what}: {err}"));
                return None;
            }
            Some(tail)
        };
        for (k, list) in lists.into_iter().enumerate() {
            if let Some(tail) = walk(k, list.first, errs).filter(|&t| t != list.last) {
                let (who, last) = (name(k), list.last);
                errs.push(format!(
                    "{what}: {who}'s last is node {last} but its list ends at node {tail}"
                ));
            }
        }
        walk(usize::MAX, self.free, errs);
        if let Some(s) = on.iter().position(Option::is_none) {
            errs.push(format!("{what}: node {s} is on no list (leaked)"));
        }
        errs.len() == before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test support, for the slab's users' tests too.
    impl<T: Linked> Slab<T> {
        /// Slots allocated, in use or free.
        pub(crate) fn capacity(&self) -> usize {
            self.items.capacity()
        }

        /// Slots ever used, in use or free.
        pub(crate) fn len(&self) -> usize {
            self.items.len()
        }

        /// The first free slot ([`NIL`] = none).
        pub(crate) fn free_head(&self) -> u32 {
            self.free
        }

        /// Points `slot`'s link at `next`, to corrupt a list.
        pub(crate) fn relink(&mut self, slot: u32, next: u32) {
            self[slot].set_next(next);
        }
    }

    /// A record holding one value.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Rec {
        val: u32,
        next: u32,
    }

    impl Linked for Rec {
        fn next(&self) -> u32 {
            self.next
        }
        fn set_next(&mut self, next: u32) {
            self.next = next;
        }
    }

    fn rec(val: u32) -> Rec {
        Rec { val, next: 0 }
    }

    /// `list`'s values, first to last.
    fn vals(slab: &Slab<Rec>, list: List) -> Vec<u32> {
        slab.iter(list).map(|s| slab[s].val).collect()
    }

    /// The audit's findings over `lists` (empty = sound), naming them A,
    /// B, ...
    fn audit(slab: &Slab<Rec>, lists: &[List]) -> Vec<String> {
        let mut errs = Vec::new();
        let sound = slab.audit(
            "slab",
            lists.iter().copied(),
            |k| char::from(b'A' + k as u8).to_string(),
            &mut errs,
        );
        assert_eq!(sound, errs.is_empty());
        errs
    }

    /// Freed slots are reused last-freed first, by any list, before the
    /// slab grows.
    #[test]
    fn freed_slots_are_reused_last_freed_first() {
        let mut slab = Slab::new();
        let (mut a, mut b) = (List::EMPTY, List::EMPTY);
        for v in 0..4 {
            assert_eq!(slab.push_back(&mut a, rec(v)), v);
        }
        assert_eq!(slab.pop_front(&mut a), Some(Rec { val: 0, next: 1 }));
        assert_eq!(slab.unlink(&mut a, 1, 2).val, 2);
        assert_eq!(slab.push_back(&mut b, rec(10)), 2, "the last freed slot");
        assert_eq!(slab.push_back(&mut b, rec(11)), 0, "then the one before");
        assert_eq!(slab.push_back(&mut b, rec(12)), 4, "then the slab grows");
        assert_eq!(
            (vals(&slab, a), vals(&slab, b)),
            (vec![1, 3], vec![10, 11, 12])
        );
        assert_eq!(audit(&slab, &[a, b]), Vec::<String>::new());
    }

    /// A full slab grows by a quarter of its length, at least 8 slots.
    #[test]
    fn a_full_slab_grows_by_a_quarter() {
        let (mut slab, mut list) = (Slab::new(), List::EMPTY);
        let mut caps = Vec::new();
        for v in 0..100 {
            slab.push_back(&mut list, rec(v));
            if caps.last() != Some(&slab.capacity()) {
                caps.push(slab.capacity());
            }
        }
        assert_eq!(caps, [8, 16, 24, 32, 40, 50, 62, 77, 96, 120]);
        assert_eq!(slab.len(), 100);
    }

    /// Unlinking from the middle keeps `last`; unlinking the tail moves
    /// `last` to its predecessor, and the next push lands behind that.
    #[test]
    fn unlink_keeps_last_at_the_tail() {
        let (mut slab, mut list) = (Slab::new(), List::EMPTY);
        for v in 0..4 {
            slab.push_back(&mut list, rec(v));
        }
        slab.unlink(&mut list, 0, 1);
        assert_eq!((vals(&slab, list), list.last), (vec![0, 2, 3], 3));
        slab.unlink(&mut list, 2, 3);
        assert_eq!((vals(&slab, list), list.last), (vec![0, 2], 2));
        slab.push_back(&mut list, rec(4));
        assert_eq!(vals(&slab, list), [0, 2, 4]);
        slab.unlink(&mut list, NIL, 0);
        slab.unlink(&mut list, NIL, 2);
        slab.unlink(&mut list, NIL, 3);
        assert_eq!(list, List::EMPTY);
        assert_eq!(slab.front(list), None);
        assert_eq!(audit(&slab, &[list]), Vec::<String>::new());
    }

    /// Moving a front record relinks its slot behind the other list's
    /// last: the slab neither grows nor frees, the audit stays clean, and
    /// a move from a one-record list empties it.
    #[test]
    fn move_front_keeps_the_slot_and_the_slab() {
        let mut slab = Slab::new();
        let (mut a, mut b) = (List::EMPTY, List::EMPTY);
        for v in 0..2 {
            slab.push_back(&mut a, rec(v));
        }
        slab.push_back(&mut b, rec(10));
        slab.pop_front(&mut b);
        slab.push_back(&mut b, rec(11));
        let (len, cap, free) = (slab.len(), slab.capacity(), slab.free_head());
        assert_eq!(slab.move_front(&mut a, &mut b), 0, "the slot is kept");
        assert_eq!((vals(&slab, a), vals(&slab, b)), (vec![1], vec![11, 0]));
        assert_eq!((a.first, a.last, b.last), (1, 1, 0));
        assert_eq!(audit(&slab, &[a, b]), Vec::<String>::new());
        assert_eq!(slab.move_front(&mut a, &mut b), 1);
        assert_eq!(a, List::EMPTY, "a move from a one-record list empties it");
        assert_eq!(vals(&slab, b), [11, 0, 1]);
        assert_eq!(slab.move_front(&mut b, &mut a), 2);
        assert_eq!((vals(&slab, a), vals(&slab, b)), (vec![11], vec![0, 1]));
        assert_eq!(
            (slab.len(), slab.capacity(), slab.free_head()),
            (len, cap, free)
        );
        assert_eq!(audit(&slab, &[a, b]), Vec::<String>::new());
    }

    /// Two lists of two slots each, and one free slot.
    fn two_lists() -> (Slab<Rec>, [List; 2]) {
        let mut slab = Slab::new();
        let mut lists = [List::EMPTY; 2];
        for v in 0..5 {
            slab.push_back(&mut lists[v as usize % 2], rec(v));
        }
        slab.unlink(&mut lists[0], 2, 4);
        assert_eq!(audit(&slab, &lists), Vec::<String>::new());
        (slab, lists)
    }

    /// A's tail linked to B's first slot: A's walk runs on into B's
    /// list, and B's walk meets a slot A already holds.
    #[test]
    fn audit_reports_a_slot_on_two_lists() {
        let (mut slab, lists) = two_lists();
        slab.relink(2, 1);
        assert_eq!(
            audit(&slab, &lists),
            [
                "slab: A's last is node 2 but its list ends at node 3",
                "slab: node 1 on B's list is already on A's list",
            ]
        );
    }

    #[test]
    fn audit_reports_a_link_past_the_end() {
        let (mut slab, lists) = two_lists();
        slab.relink(2, 9);
        assert_eq!(
            audit(&slab, &lists),
            ["slab: A's list links to node 9, past the slab's 5 nodes"]
        );
    }

    #[test]
    fn audit_reports_a_wrong_last() {
        let (slab, mut lists) = two_lists();
        lists[1].last = 1;
        assert_eq!(
            audit(&slab, &lists),
            ["slab: B's last is node 1 but its list ends at node 3"]
        );
    }

    #[test]
    fn audit_reports_a_leaked_slot() {
        let (mut slab, lists) = two_lists();
        slab.free = NIL;
        assert_eq!(
            audit(&slab, &lists),
            ["slab: node 4 is on no list (leaked)"]
        );
    }
}
