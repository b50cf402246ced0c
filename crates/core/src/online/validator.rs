//! The incremental witness validator behind [`OnlineChecker::push`]: the
//! state and the candidate decisions described under "Incremental witness
//! validation" in the parent module.
//!
//! [`OnlineChecker::push`]: super::OnlineChecker::push

use super::Edit;
use crate::Witness;
use duop_history::{
    CommitCapability, Event, EventKind, History, ObjId, Op, Ret, TxnId, TxnView, Value,
};
use std::collections::{BTreeMap, HashMap};

/// A committed-in-`S` writer of one t-object.
#[derive(Clone, Copy, Debug)]
struct Writer {
    stamp: u32,
    slot: u32,
    value: Value,
    try_commit: usize,
}

/// A value read not served by the reader's own earlier write.
#[derive(Clone, Copy, Debug)]
struct Reader {
    slot: u32,
    resp: usize,
    got: Value,
}

#[derive(Debug, Default)]
struct ObjState {
    /// Sorted by stamp.
    writers: Vec<Writer>,
    readers: Vec<Reader>,
}

#[derive(Clone, Copy, Debug)]
struct TxnState {
    stamp: u32,
    committed: bool,
}

/// The edited transaction's entry as one candidate sees it.
#[derive(Clone, Copy, Debug)]
struct Overlay {
    /// The transaction's slot, `None` for a transaction new in `H·e`.
    slot: Option<u32>,
    stamp: u32,
    committed: bool,
    /// Index of the `tryC` invocation (`usize::MAX` if none).
    try_commit: usize,
}

/// Incremental state certifying the monitor's current witness for its
/// current history.
#[derive(Debug, Default)]
pub(super) struct Validator {
    // Ids come from the trace, so the maps keep the default (keyed) hasher.
    slots: HashMap<TxnId, u32>,
    txns: Vec<TxnState>,
    objs: HashMap<ObjId, ObjState>,
    next_stamp: u32,
}

impl Validator {
    /// Builds the state for `(h, w)`. The caller guarantees that
    /// `check_witness` accepts `w` for `h`.
    pub(super) fn build(h: &History, w: &Witness) -> Self {
        let mut v = Validator::default();
        for (pos, &id) in w.order().iter().enumerate() {
            let txn = h.txn(id).expect("a validated witness covers the history");
            let slot = v.txns.len() as u32;
            let committed = w.is_committed_in(h, id);
            v.slots.insert(id, slot);
            v.txns.push(TxnState {
                stamp: pos as u32,
                committed,
            });
            if committed {
                let try_commit = h
                    .try_commit_inv_index(id)
                    .expect("committed txns invoked tryC");
                v.insert_writes(&txn, slot, pos as u32, try_commit);
            }
            for_each_read(&txn, |obj, resp, got, own| {
                if own.is_none() {
                    v.objs
                        .entry(obj)
                        .or_default()
                        .readers
                        .push(Reader { slot, resp, got });
                }
                true
            });
        }
        v.next_stamp = w.order().len() as u32;
        v
    }

    /// Whether `check_witness` accepts the candidate `edit` of the
    /// certified witness (whose commit choices are `choices`) for `h`,
    /// the certified history extended by one event of `id`.
    pub(super) fn accepts(
        &self,
        h: &History,
        id: TxnId,
        edit: Edit,
        choices: &BTreeMap<TxnId, bool>,
    ) -> bool {
        let txn = h.txn(id).expect("the event's transaction participates");
        let ov = self.overlay(h, &txn, edit, choices);

        // The edited transaction's own reads, at its new stamp.
        let own_reads_legal = for_each_read(&txn, |obj, resp, got, own| match own {
            Some(v) => got == v,
            None => self.read_legal(obj, ov.stamp, resp, got, &ov, None),
        });
        if !own_reads_legal {
            return false;
        }

        // Readers of what `T` writes, after `T`'s old or new committed
        // entry: the only other reads whose visible writers can change.
        let old = ov.slot.map(|s| self.txns[s as usize]);
        let from = match (old.filter(|t| t.committed), ov.committed) {
            (None, false) => return true,
            (Some(t), true) => t.stamp.min(ov.stamp),
            (Some(t), false) => t.stamp,
            (None, true) => ov.stamp,
        };
        last_writes(&txn).into_iter().all(|(obj, value)| {
            self.objs.get(&obj).is_none_or(|st| {
                st.readers.iter().all(|r| {
                    let stamp = self.txns[r.slot as usize].stamp;
                    Some(r.slot) == ov.slot
                        || stamp <= from
                        || self.read_legal(obj, stamp, r.resp, r.got, &ov, Some(value))
                })
            })
        })
    }

    /// Commits the accepted candidate `edit` for `event`, the last event
    /// of `h` (arguments as for [`Self::accepts`]).
    pub(super) fn apply(
        &mut self,
        h: &History,
        event: Event,
        edit: Edit,
        choices: &BTreeMap<TxnId, bool>,
    ) {
        let txn = h
            .txn(event.txn)
            .expect("the event's transaction participates");
        let ov = self.overlay(h, &txn, edit, choices);
        let slot = ov.slot.unwrap_or_else(|| {
            let slot = self.txns.len() as u32;
            self.slots.insert(event.txn, slot);
            self.txns.push(TxnState {
                stamp: ov.stamp,
                committed: false,
            });
            slot
        });
        if self.txns[slot as usize].committed {
            for (obj, _) in last_writes(&txn) {
                if let Some(st) = self.objs.get_mut(&obj) {
                    st.writers.retain(|w| w.slot != slot);
                }
            }
        }
        self.txns[slot as usize] = TxnState {
            stamp: ov.stamp,
            committed: ov.committed,
        };
        if ov.committed {
            self.insert_writes(&txn, slot, ov.stamp, ov.try_commit);
        }
        // A fresh read response joins its object's readers.
        if matches!(event.kind, EventKind::Resp(Ret::Value(_))) {
            let fresh = h.len() - 1;
            for_each_read(&txn, |obj, resp, got, own| {
                if resp == fresh && own.is_none() {
                    self.objs
                        .entry(obj)
                        .or_default()
                        .readers
                        .push(Reader { slot, resp, got });
                }
                true
            });
        }
        if ov.stamp == self.next_stamp {
            self.next_stamp += 1;
            if self.next_stamp == u32::MAX {
                self.renumber();
            }
        }
    }

    /// Reassigns stamps `0..n` in order, so stamps never overflow however
    /// many times transactions move to the end.
    pub(super) fn renumber(&mut self) {
        let mut by_stamp: Vec<u32> = (0..self.txns.len() as u32).collect();
        by_stamp.sort_unstable_by_key(|&s| self.txns[s as usize].stamp);
        for (pos, &s) in by_stamp.iter().enumerate() {
            self.txns[s as usize].stamp = pos as u32;
        }
        for st in self.objs.values_mut() {
            for w in &mut st.writers {
                w.stamp = self.txns[w.slot as usize].stamp;
            }
        }
        self.next_stamp = self.txns.len() as u32;
    }

    fn overlay(
        &self,
        h: &History,
        txn: &TxnView<'_>,
        edit: Edit,
        choices: &BTreeMap<TxnId, bool>,
    ) -> Overlay {
        let slot = self.slots.get(&txn.id()).copied();
        let stamp = match (slot, edit) {
            (Some(s), Edit::Keep | Edit::Decide(_)) => self.txns[s as usize].stamp,
            _ => self.next_stamp,
        };
        let committed = match txn.commit_capability() {
            CommitCapability::Committed => true,
            CommitCapability::CommitPending => match edit {
                Edit::Decide(decide) => decide,
                _ => choices.get(&txn.id()).copied().unwrap_or(false),
            },
            CommitCapability::NeverCommitted => false,
        };
        let try_commit = h.try_commit_inv_index(txn.id()).unwrap_or(usize::MAX);
        Overlay {
            slot,
            stamp,
            committed,
            try_commit,
        }
    }

    fn insert_writes(&mut self, txn: &TxnView<'_>, slot: u32, stamp: u32, try_commit: usize) {
        for (obj, value) in last_writes(txn) {
            let writers = &mut self.objs.entry(obj).or_default().writers;
            let at = writers.partition_point(|w| w.stamp < stamp);
            writers.insert(
                at,
                Writer {
                    stamp,
                    slot,
                    value,
                    try_commit,
                },
            );
        }
    }

    /// Whether a read of `obj` returning `got`, responded at event `resp`
    /// by a transaction at `stamp`, is legal both globally and in its
    /// local serialization (Definition 3(3)) under the overlay `ov`, whose
    /// transaction writes `ov_value` to `obj` (if any).
    fn read_legal(
        &self,
        obj: ObjId,
        stamp: u32,
        resp: usize,
        got: Value,
        ov: &Overlay,
        ov_value: Option<Value>,
    ) -> bool {
        self.visible(obj, stamp, None, ov, ov_value) == got
            && self.visible(obj, stamp, Some(resp), ov, ov_value) == got
    }

    /// The value of the latest committed writer of `obj` before `stamp`,
    /// restricted to writers whose `tryC` was invoked before event
    /// `eligible_before` when given (the local serialization `S^{k,X}_H`).
    fn visible(
        &self,
        obj: ObjId,
        stamp: u32,
        eligible_before: Option<usize>,
        ov: &Overlay,
        ov_value: Option<Value>,
    ) -> Value {
        let eligible = |try_commit: usize| eligible_before.is_none_or(|r| try_commit < r);
        let latest = self.objs.get(&obj).and_then(|st| {
            let end = st.writers.partition_point(|w| w.stamp < stamp);
            st.writers[..end]
                .iter()
                .rev()
                .find(|w| Some(w.slot) != ov.slot && eligible(w.try_commit))
        });
        match ov_value {
            Some(v)
                if ov.committed
                    && ov.stamp < stamp
                    && eligible(ov.try_commit)
                    && latest.is_none_or(|w| w.stamp < ov.stamp) =>
            {
                v
            }
            _ => latest.map_or(Value::INITIAL, |w| w.value),
        }
    }
}

/// Calls `f(obj, resp_index, got, own)` for every value read of `txn` in
/// program order, where `own` is the transaction's latest earlier write
/// to `obj`; stops at the first `false`, returning whether none was.
fn for_each_read(
    txn: &TxnView<'_>,
    mut f: impl FnMut(ObjId, usize, Value, Option<Value>) -> bool,
) -> bool {
    let mut own: Vec<(ObjId, Value)> = Vec::new();
    for op in txn.ops() {
        match (op.op, op.resp) {
            (Op::Write(x, v), Some(Ret::Ok)) => match own.iter_mut().find(|(o, _)| *o == x) {
                Some(slot) => slot.1 = v,
                None => own.push((x, v)),
            },
            (Op::Read(x), Some(Ret::Value(got))) => {
                let mine = own.iter().find(|(o, _)| *o == x).map(|&(_, v)| v);
                let resp = op.resp_index.expect("a read with a value responded");
                if !f(x, resp, got, mine) {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

/// Each object `txn` writes, with the last value it writes there.
fn last_writes(txn: &TxnView<'_>) -> Vec<(ObjId, Value)> {
    let mut out: Vec<(ObjId, Value)> = Vec::new();
    for op in txn.ops() {
        if let Op::Write(x, v) = op.op {
            match out.iter_mut().find(|(o, _)| *o == x) {
                Some(slot) => slot.1 = v,
                None => out.push((x, v)),
            }
        }
    }
    out
}
