//! The provenance store: the execution history `CPI` of pipeline instances
//! and their evaluations.
//!
//! BugDoc's inputs are "a set of parameter-value pairs associated with
//! previously-run instances `G = CP_1 … CP_k`" (paper §3, Problem Definition),
//! and its cost measure counts executions *beyond* that set. The store is the
//! single source of truth both for what is already known (dedup/caching) and
//! for the queries the algorithms pose: find a failing instance, find
//! (mutually) disjoint successes, check whether a hypothetical cause has a
//! succeeding superset (the Shortcut sanity check).
//!
//! # Index layout
//!
//! Because BugDoc's cost model counts only *new pipeline executions*, every
//! in-memory operation here must be effectively free even at large histories.
//! The store therefore maintains, alongside the append-only `runs` log:
//!
//! * **Dense instance keys** — each recorded instance is encoded as one
//!   domain index per parameter (`Box<[u32]>`, see [`ParamSpace::encode`]),
//!   and `by_key` maps that encoding (hashed with the cheap
//!   [`FxHasher`](crate::FxHasher)) to its run index. Lookup of an instance
//!   that carries its own key ([`Instance::dense_key`]) hashes a handful of
//!   `u32`s — no `Value` hashing, no instance cloning.
//! * **Epoch-segmented (parameter, value) run bitsets** — the run log is cut
//!   into fixed-size *epochs* of [`ProvenanceStore::epoch_runs`] runs. Each
//!   epoch owns one flat block of bit words, with value `(p, v)`'s row
//!   at `block[(offsets[p] + v) * epoch_words ..]`. The *in-progress* epoch
//!   stores raw rows (run `r` sets one bit per parameter); when an epoch
//!   fills, freezing converts its rows in place to **cumulative prefix-ORs**
//!   (row `v` = raw rows `0..=v` OR'd). In a frozen block any predicate's
//!   satisfying runs are a union of at most two contiguous value ranges —
//!   `=`/`≤`/`>`/`≠` all reduce to ranges over the domain order — and a
//!   range `[lo, hi]` reads out as `prefix[hi] & !prefix[lo-1]` (just
//!   `prefix[hi]` when `lo = 0`): 1–4 row reads per predicate regardless of
//!   domain size. A conjunction ANDs those unions across its predicates via
//!   the fused [`kernels`] — so [`support`](ProvenanceStore::support) and
//!   [`succeeding_superset_exists`](ProvenanceStore::succeeding_superset_exists)
//!   are word-parallel bit operations over the log instead of per-run
//!   predicate interpretation, and an epoch whose accumulator goes empty is
//!   skipped wholesale. Every full epoch keeps its block for the life of
//!   the store.
//! * **Overflow list** — instances whose values fall outside their declared
//!   domains (possible via the unchecked [`Instance::new`]) cannot be
//!   encoded; they are tracked in `overflow` and handled by the original
//!   interpretive path, so the fast index never changes observable
//!   semantics.
//!
//! # Query paths
//!
//! Every query runs on the calling thread and is one exact scan. A
//! conjunction is resolved once into a per-predicate plan of value ranges.
//! The superset check is one epoch-major scan over a batch of causes —
//! overflow runs, then the in-progress epoch, then the frozen epochs — each
//! cause dropping out at its first succeeding match; the scalar check is a
//! batch of one. [`support`](ProvenanceStore::support) counts every epoch.

use crate::bitset::RunSet;
use crate::cause::Conjunction;
use crate::fx::hash_dense_key;
use crate::instance::Instance;
use crate::kernels;
use crate::outcome::{EvalResult, Outcome};
use crate::param::{Domain, ParamSpace};
use crate::predicate::{Comparator, Predicate};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Open-addressing index from dense instance keys to run indices.
///
/// Slots hold `(fingerprint, run)` pairs; the key bytes live in a flat
/// side arena (`arity` `u32`s per run, zero-filled for unencodable runs), so
/// every probe is hash → slot → one contiguous arena row — no pointer chase
/// through the run log. A fingerprint match is always confirmed against the
/// arena row, so lookups are exact even under 64-bit hash collisions; this
/// is still a handful of nanoseconds against a 10k-run history, versus the
/// tens a general-purpose `HashMap<Box<[u32]>, _>` costs on the same probe.
#[derive(Debug, Clone)]
struct KeyIndex {
    /// Packed slots: high 32 bits = fingerprint tag (`fp >> 32`), low 32 =
    /// run index (`EMPTY` marks a free slot). 8 bytes per slot keeps the
    /// table cache-resident at large histories. Slot position is derived
    /// from the fingerprint's *high* bits — the same bits the tag stores —
    /// so growth re-derives every position from the stored tag instead of
    /// rehashing arena rows; a tag match is still always confirmed against
    /// the arena, so lookups stay exact under collisions.
    slots: Vec<u64>,
    mask: usize,
    len: usize,
    /// Dense keys, one `arity`-sized row per run (in run order).
    arena: Vec<u32>,
    /// Key length — the parameter count of the store's space.
    arity: usize,
}

const EMPTY: u32 = u32::MAX;
const FREE_SLOT: u64 = EMPTY as u64;

#[inline]
fn pack_slot(fp: u64, run: u32) -> u64 {
    (fp & 0xFFFF_FFFF_0000_0000) | run as u64
}

/// Home slot for a fingerprint: its high bits (the stored tag), masked.
/// Shared by probe, insert, and growth so all three agree.
#[inline]
fn home_slot(fp: u64, mask: usize) -> usize {
    (fp >> 32) as usize & mask
}

impl KeyIndex {
    fn new(arity: usize) -> Self {
        KeyIndex {
            slots: vec![FREE_SLOT; 16],
            mask: 15,
            len: 0,
            arena: Vec::new(),
            arity,
        }
    }

    /// The arena row holding run `r`'s dense key.
    // lint: allow(W003, reason = "every caller passes a run index whose row was appended by insert_at/push_overflow_row, so the arena slice r*arity..(r+1)*arity exists by construction", scope = "block")
    #[inline]
    fn row(&self, r: usize) -> &[u32] {
        &self.arena[r * self.arity..(r + 1) * self.arity]
    }

    /// One probe serving both lookup and insert: `Ok(run)` when the key is
    /// present, `Err(free_slot)` with the slot its probe chain ended at —
    /// exactly where an insert of this key belongs. Exact: every tag match
    /// is confirmed against the stored key bytes. The returned slot is
    /// valid only until the table next grows.
    // lint: allow(W003, reason = "open-addressing probe: i is always masked by self.mask, which is slots.len() - 1 for a power-of-two table, so slots[i] cannot be out of bounds", scope = "block")
    #[inline]
    fn probe(&self, fp: u64, key: &[u32]) -> Result<usize, usize> {
        let tag = fp & 0xFFFF_FFFF_0000_0000;
        let mut i = home_slot(fp, self.mask);
        loop {
            let slot = self.slots[i];
            let run = slot as u32;
            if run == EMPTY {
                return Err(i);
            }
            if slot & 0xFFFF_FFFF_0000_0000 == tag && self.row(run as usize) == key {
                return Ok(run as usize);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The run whose instance has dense key `key`, given `key`'s fingerprint.
    #[inline]
    fn get(&self, fp: u64, key: &[u32]) -> Option<usize> {
        self.probe(fp, key).ok()
    }

    /// Appends run `run`'s key row (callers append rows strictly in run
    /// order) and indexes it at `slot` — the free slot a just-completed
    /// [`probe`](Self::probe) miss returned, so the record hot path pays one
    /// chain walk, not two. The key must be absent and `run` below
    /// [`EMPTY`]. If the insert triggers growth the slot is re-derived
    /// under the new mask.
    // lint: allow(W003, reason = "slot comes from a probe miss under the current mask (re-derived after growth), so it is a live in-bounds free slot", scope = "block")
    fn insert_at(&mut self, mut slot: usize, fp: u64, run: u32, key: &[u32]) {
        debug_assert_eq!(key.len(), self.arity);
        debug_assert_eq!(self.arena.len(), run as usize * self.arity);
        assert!(run < EMPTY, "run index overflow");
        self.arena.extend_from_slice(key);
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
            slot = self
                .probe(fp, key)
                .expect_err("key inserted twice: probe hit after grow");
        }
        debug_assert_eq!(self.slots[slot] as u32, EMPTY, "insert into occupied slot");
        self.slots[slot] = pack_slot(fp, run);
        self.len += 1;
    }

    /// Appends a zero-filled arena row for a run that has no dense key, so
    /// row addressing stays `run * arity`. (The row is never compared: only
    /// runs inserted into `slots` are.)
    fn push_overflow_row(&mut self, run: u32) {
        debug_assert_eq!(self.arena.len(), run as usize * self.arity);
        self.arena.extend(std::iter::repeat(0).take(self.arity));
    }

    /// Pre-sizes for `additional` further inserts: the arena reserves their
    /// key rows and the slot table jumps straight to its final size, so a
    /// bulk load pays zero intermediate grow-and-rehash passes.
    fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional * self.arity);
        let needed = (self.len + additional + 1) * 2;
        if needed > self.slots.len() {
            self.grow_to(needed.next_power_of_two());
        }
    }

    fn grow(&mut self) {
        // Quadruple while small: a doubling schedule re-places every slot
        // O(log n) times, and below this size the table is cache-resident
        // anyway, so the larger steps cost nothing but skipped rehashes.
        let new_cap = if self.slots.len() <= 4096 {
            self.slots.len() * 4
        } else {
            self.slots.len() * 2
        };
        self.grow_to(new_cap);
    }

    // lint: allow(W003, reason = "re-placement walk: i stays masked by the new power-of-two mask, and the table is at most half full so an EMPTY slot terminates the loop", scope = "block")
    fn grow_to(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two() && new_cap > self.slots.len());
        let old = std::mem::replace(&mut self.slots, vec![FREE_SLOT; new_cap]);
        self.mask = new_cap - 1;
        for slot in old {
            if slot as u32 == EMPTY {
                continue;
            }
            // The home position is derived from the tag bits the slot
            // already stores, so growth never rehashes arena rows — it just
            // re-derives positions under the wider mask.
            let mut i = home_slot(slot, self.mask);
            while self.slots[i] as u32 != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// Default runs per epoch of the segmented value index (see the module
/// docs). Sized so the expensive part of a query — the raw-row scan of the
/// in-progress epoch — stays a few words per value row, while frozen
/// (prefix-encoded) epochs answer predicates in 1–4 row reads each.
pub const DEFAULT_EPOCH_RUNS: usize = 1024;

/// Epochs (full + in-progress) visited by the exact scans, updated by
/// `support` and `succeeding_superset_exists` (an atomic, so `&self`
/// queries can count). Cloning a store snapshots the current value.
#[derive(Debug, Default)]
struct QueryStats {
    epochs_scanned: AtomicU64,
}

impl Clone for QueryStats {
    // lint: allow(W004, reason = "relaxed load of a monotonic telemetry counter; a clone is a point-in-time diagnostic snapshot, not a synchronization point", scope = "block")
    fn clone(&self) -> Self {
        QueryStats {
            epochs_scanned: AtomicU64::new(self.epochs_scanned.load(Ordering::Relaxed)),
        }
    }
}

/// A predicate's allowed value indices as maximal contiguous inclusive
/// `[lo, hi]` ranges, ascending. Every comparator's extension over a domain
/// is at most two ranges — equality is a point, its complement two pieces,
/// `≤`/`>` a prefix/suffix of the sorted ordinal order — so the common case
/// stores inline without allocating; only the degenerate fallback (an order
/// comparator applied to an unordered domain) can spill.
enum Ranges {
    Inline(u8, [(u32, u32); 2]),
    Spill(Vec<(u32, u32)>),
}

impl Ranges {
    const EMPTY: Ranges = Ranges::Inline(0, [(0, 0); 2]);

    fn push(&mut self, r: (u32, u32)) {
        match self {
            Ranges::Inline(n, arr) => {
                if (*n as usize) < arr.len() {
                    // lint: allow(W003, reason = "guarded by the bounds check on the line above")
                    arr[*n as usize] = r;
                    *n += 1;
                } else {
                    let mut v = arr.to_vec();
                    v.push(r);
                    *self = Ranges::Spill(v);
                }
            }
            Ranges::Spill(v) => v.push(r),
        }
    }

    fn as_slice(&self) -> &[(u32, u32)] {
        match self {
            // lint: allow(W003, reason = "push keeps n <= arr.len(), spilling to the Vec variant before it could exceed the inline capacity")
            Ranges::Inline(n, arr) => &arr[..*n as usize],
            Ranges::Spill(v) => v,
        }
    }
}

/// One predicate of a conjunction, resolved against the store's index
/// layout: its flat-index base and its allowed values as contiguous ranges.
/// In a frozen (prefix-encoded) block a range `[lo, hi]` is the term
/// `prefix[hi] & !prefix[lo-1]` (just `prefix[hi]` when `lo = 0`); in the
/// raw current block it is an OR over rows `lo..=hi`.
struct PredPlan {
    base: usize,
    ranges: Ranges,
}

/// Reusable scratch for the per-predicate term slices of frozen-epoch scans
/// (borrowed prefix rows of the epoch block under evaluation).
#[derive(Default)]
struct TermScratch<'s> {
    full: Vec<&'s [u64]>,
    diff: Vec<(&'s [u64], &'s [u64])>,
}

/// `words[at..]`, or empty when `at` is past the end — the outcome-bitset
/// window of an epoch (outcome sets stop growing at the last run of their
/// kind, so an epoch's window may be short or absent).
#[inline]
fn words_from(words: &[u64], at: usize) -> &[u64] {
    words.get(at..).unwrap_or(&[])
}

/// One recorded execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The executed instance.
    pub instance: Instance,
    /// Its evaluation.
    pub eval: EvalResult,
}

impl Run {
    /// The binary outcome.
    pub fn outcome(&self) -> Outcome {
        self.eval.outcome
    }
}

/// The execution history of a pipeline, deduplicated by instance.
///
/// The evaluation procedure is deterministic (paper §3, Def. 2), so recording
/// the same instance twice with conflicting outcomes is a bug; `record`
/// detects and reports it. See the module docs for the dense-key and bitset
/// index this store maintains.
#[derive(Debug, Clone)]
pub struct ProvenanceStore {
    space: Arc<ParamSpace>,
    runs: Vec<Run>,
    /// Dense instance encoding → run index (no instance clone stored).
    by_key: KeyIndex,
    /// Start of parameter `p`'s slice of the flat value index.
    offsets: Vec<u32>,
    /// Total `(parameter, value)` slots — `offsets.last() + last domain len`.
    total_values: u32,
    /// Runs per epoch (a multiple of 64, so epochs are word-aligned).
    epoch_runs: usize,
    /// Words per value per epoch: `epoch_runs / 64`.
    epoch_words: usize,
    /// Value-bit blocks of *completed* epochs (`total_values * epoch_words`
    /// words each, prefix-OR encoded — see the module docs — and frozen from
    /// `current` when the epoch fills).
    blocks: Vec<Box<[u64]>>,
    /// The in-progress epoch's *raw* value rows, one flat pre-zeroed block
    /// in the same `(offsets[p] + v) * epoch_words` layout as a frozen
    /// block: recording a run is one `|=` per parameter, and freezing is a
    /// move plus the in-place prefix conversion.
    current: Vec<u64>,
    /// Runs in the in-progress epoch — always `runs.len() % epoch_runs`,
    /// carried as a counter so the record hot path never divides by the
    /// (runtime-chosen, not necessarily power-of-two) epoch size.
    tail_runs: usize,
    /// Runs that failed.
    fail_bits: RunSet,
    /// Runs that succeeded.
    succeed_bits: RunSet,
    /// Runs whose instances could not be densely encoded (out-of-domain
    /// values); they are absent from `by_key`/the value index and served by
    /// the interpretive fallback paths.
    overflow: Vec<u32>,
    /// Scan coverage (see [`epochs_scanned`](Self::epochs_scanned)).
    query_stats: QueryStats,
}

impl ProvenanceStore {
    /// An empty history over a space, with the default epoch size
    /// ([`DEFAULT_EPOCH_RUNS`]).
    pub fn new(space: Arc<ParamSpace>) -> Self {
        ProvenanceStore::with_epoch_size(space, DEFAULT_EPOCH_RUNS)
    }

    /// An empty history whose value index is segmented into epochs of
    /// `epoch_runs` runs. `epoch_runs` must be a non-zero multiple of 64
    /// (epochs are word-aligned). Small epochs freeze sooner at the price
    /// of more per-epoch bookkeeping.
    pub fn with_epoch_size(space: Arc<ParamSpace>, epoch_runs: usize) -> Self {
        assert!(
            epoch_runs > 0 && epoch_runs % 64 == 0,
            "epoch size must be a non-zero multiple of 64, got {epoch_runs}"
        );
        let mut offsets = Vec::with_capacity(space.len());
        let mut total = 0u32;
        for p in space.ids() {
            offsets.push(total);
            total += space.domain(p).len() as u32;
        }
        let arity = space.len();
        ProvenanceStore {
            space,
            runs: Vec::new(),
            by_key: KeyIndex::new(arity),
            offsets,
            total_values: total,
            epoch_runs,
            epoch_words: epoch_runs / 64,
            blocks: Vec::new(),
            current: vec![0u64; total as usize * (epoch_runs / 64)],
            tail_runs: 0,
            fail_bits: RunSet::new(),
            succeed_bits: RunSet::new(),
            overflow: Vec::new(),
            query_stats: QueryStats::default(),
        }
    }

    /// How many epochs (full + in-progress) the exact scans have visited in
    /// total: each scan counts the whole log, early exits included.
    pub fn epochs_scanned(&self) -> u64 {
        // Relaxed load: diagnostic counter only, no ordering with queries.
        self.query_stats.epochs_scanned.load(Ordering::Relaxed)
    }

    /// Counts `scans` exact scans over the whole log in `epochs_scanned`.
    fn note_scans(&self, scans: usize) {
        let epochs = self.blocks.len() + usize::from(self.tail_runs != 0);
        // Relaxed increment: telemetry only, never read for control flow.
        self.query_stats
            .epochs_scanned
            .fetch_add((scans * epochs) as u64, Ordering::Relaxed);
    }

    /// Freezes the just-completed epoch: moves the flat `current` block out
    /// (a fresh zeroed block replaces it) and converts each parameter's raw
    /// value rows to cumulative prefix-ORs in place (row `v` |= row `v-1`,
    /// ascending — the frozen-block query encoding). Called exactly when
    /// `runs.len()` reaches an epoch boundary.
    // lint: allow(W003, reason = "block is allocated as total_values * epoch_words, and every index is (base + v) with v < domain.len() in offsets layout, so all slices exist by construction", scope = "block")
    fn freeze_current_epoch(&mut self) {
        let w = self.epoch_words;
        let total = self.total_values as usize;
        let mut block = std::mem::replace(&mut self.current, vec![0u64; total * w]).into_boxed_slice();
        for (p, &base) in self.space.ids().zip(&self.offsets) {
            let len = self.space.domain(p).len();
            for v in 1..len {
                let at = (base as usize + v) * w;
                let (head, tail) = block.split_at_mut(at);
                kernels::or_into(&mut tail[..w], &head[at - w..]);
            }
        }
        self.blocks.push(block);
    }

    /// Run index of an unencodable instance, by value equality.
    // lint: allow(W003, reason = "overflow stores indices of runs that were pushed before being recorded there, so runs[i] exists", scope = "block")
    fn overflow_find(&self, instance: &Instance) -> Option<usize> {
        self.overflow
            .iter()
            .map(|&i| i as usize)
            .find(|&i| &self.runs[i].instance == instance)
    }

    /// A predicate's extension as contiguous ranges, without scanning the
    /// domain: equality and its complement are one hash probe
    /// ([`Domain::exact_index_of`] — the same `==` semantics
    /// [`Predicate::allowed_indices`] applies), `≤`/`>` on an ordinal domain
    /// are a `partition_point` over the values (sorted by the very order the
    /// comparator uses). Only an order comparator on an unordered domain —
    /// constructible but meaningless — falls back to the `O(len)` scan.
    // lint: allow(W003, reason = "the contiguous-run walk only reads allowed[k] under k < allowed.len() checks on the enclosing loop conditions", scope = "block")
    fn pred_ranges(pred: &Predicate, domain: &Domain) -> Ranges {
        let len = domain.len() as u32;
        let mut ranges = Ranges::EMPTY;
        if len == 0 {
            return ranges;
        }
        match pred.cmp {
            Comparator::Eq => {
                if let Some(i) = domain.exact_index_of(&pred.value) {
                    ranges.push((i as u32, i as u32));
                }
            }
            Comparator::Neq => match domain.exact_index_of(&pred.value) {
                Some(i) => {
                    let i = i as u32;
                    if i > 0 {
                        ranges.push((0, i - 1));
                    }
                    if i + 1 < len {
                        ranges.push((i + 1, len - 1));
                    }
                }
                None => ranges.push((0, len - 1)),
            },
            Comparator::Le | Comparator::Gt if domain.is_ordinal() => {
                let k = domain.values().partition_point(|x| x <= &pred.value) as u32;
                if pred.cmp == Comparator::Le {
                    if k > 0 {
                        ranges.push((0, k - 1));
                    }
                } else if k < len {
                    ranges.push((k, len - 1));
                }
            }
            _ => {
                // Contiguous-run split of the interpretive extension.
                let allowed = pred.allowed_indices(domain);
                debug_assert!(allowed.windows(2).all(|w| w[0] < w[1]));
                let mut k = 0;
                while k < allowed.len() {
                    let lo = allowed[k];
                    let mut hi = lo;
                    while k + 1 < allowed.len() && allowed[k + 1] == hi + 1 {
                        k += 1;
                        hi = allowed[k];
                    }
                    ranges.push((lo as u32, hi as u32));
                    k += 1;
                }
            }
        }
        debug_assert_eq!(
            ranges
                .as_slice()
                .iter()
                .flat_map(|&(lo, hi)| lo as usize..=hi as usize)
                .collect::<Vec<_>>(),
            pred.allowed_indices(domain),
            "range fast path diverged from the interpretive extension"
        );
        ranges
    }

    /// Resolves each predicate of a non-empty conjunction once against the
    /// index layout — the plan the exact scans read.
    // lint: allow(W003, reason = "offsets holds one entry per parameter of the space the predicate is drawn from", scope = "block")
    fn plan_predicates(&self, cause: &Conjunction) -> Vec<PredPlan> {
        cause
            .predicates()
            .iter()
            .map(|pred| PredPlan {
                base: self.offsets[pred.param.index()] as usize,
                ranges: Self::pred_ranges(pred, self.space.domain(pred.param)),
            })
            .collect()
    }

    /// Computes full epoch `e`'s satisfying-run words into `acc`
    /// (`acc.len() == epoch_words`; `scratch` is reusable scratch for the
    /// per-predicate term slices): an AND-of-unions over its prefix-encoded
    /// block via the fused term [`kernels`] — each predicate costs 1–4 row
    /// reads, however many values it allows. On return `acc` always holds
    /// the exact epoch words (all zero when the epoch has no match); the
    /// return value is `false` iff no run in the epoch satisfies.
    // lint: allow(W003, reason = "e < blocks.len() at every call site, and frozen-block rows are (base + value) * epoch_words slices of a block allocated at that exact size", scope = "block")
    fn epoch_acc_into<'s>(
        &'s self,
        e: usize,
        preds: &[PredPlan],
        scratch: &mut TermScratch<'s>,
        acc: &mut [u64],
    ) -> bool {
        let w = self.epoch_words;
        debug_assert_eq!(acc.len(), w);
        let words = &self.blocks[e];
        for (pi, p) in preds.iter().enumerate() {
            scratch.full.clear();
            scratch.diff.clear();
            for &(lo, hi) in p.ranges.as_slice() {
                let hi_row = (p.base + hi as usize) * w;
                if lo == 0 {
                    scratch.full.push(&words[hi_row..hi_row + w]);
                } else {
                    let lo_row = (p.base + lo as usize - 1) * w;
                    scratch
                        .diff
                        .push((&words[hi_row..hi_row + w], &words[lo_row..lo_row + w]));
                }
            }
            if pi == 0 {
                kernels::or_terms_into(acc, &scratch.full, &scratch.diff);
            } else {
                kernels::and_terms_into(acc, &scratch.full, &scratch.diff);
            }
            if kernels::is_zero(acc) {
                return false;
            }
        }
        true
    }

    /// The in-progress epoch's satisfying-run words, into `acc`
    /// (`acc.len() ==` the epoch's filled word count): an AND-of-ORs over
    /// the raw value rows of the flat `current` block — raw because the
    /// prefix conversion only happens at freeze, so here every allowed
    /// value's row is OR'd, sliced to the filled words. Same contract as
    /// [`epoch_acc_into`](Self::epoch_acc_into).
    // lint: allow(W003, reason = "current is allocated as total_values * epoch_words and acc.len() is the filled word count <= epoch_words, so every (base + vi) * w row slice is in bounds", scope = "block")
    fn current_acc_into(&self, preds: &[PredPlan], acc: &mut [u64]) -> bool {
        let w = self.epoch_words;
        let used = acc.len();
        let mut srcs: Vec<&[u64]> = Vec::new();
        for (pi, p) in preds.iter().enumerate() {
            srcs.clear();
            for &(lo, hi) in p.ranges.as_slice() {
                srcs.extend((lo as usize..=hi as usize).map(|vi| {
                    let base = (p.base + vi) * w;
                    &self.current[base..base + used]
                }));
            }
            if pi == 0 {
                kernels::or_multi_into(acc, &srcs);
            } else {
                kernels::and_or_multi_into(acc, &srcs);
            }
            if kernels::is_zero(acc) {
                return false;
            }
        }
        true
    }

    /// `(failing, succeeding)` counts of the runs in `acc`'s word window
    /// starting at word `at` of the log — fused AND+popcount against the
    /// outcome bitsets, clamped to `acc`'s length.
    #[inline]
    fn outcome_counts_at(&self, at: usize, acc: &[u64]) -> (usize, usize) {
        (
            kernels::and_popcount(acc, words_from(self.fail_bits.words(), at)),
            kernels::and_popcount(acc, words_from(self.succeed_bits.words(), at)),
        )
    }

    /// A history pre-seeded with given runs (the paper's "previously run
    /// instances"). Panics on conflicting duplicate evaluations.
    pub fn with_runs(space: Arc<ParamSpace>, runs: impl IntoIterator<Item = Run>) -> Self {
        let mut store = ProvenanceStore::new(space);
        for run in runs {
            store.record(run.instance, run.eval);
        }
        store
    }

    /// The parameter space.
    pub fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    /// Pre-sizes the run log and the dense-key index for `additional`
    /// further [`record`](Self::record) calls. Purely an optimization for
    /// bulk loads of a known size: the key table jumps straight to its
    /// final size instead of re-placing every slot once per doubling, and
    /// the run log allocates once.
    pub fn reserve(&mut self, additional: usize) {
        self.runs.reserve(additional);
        self.by_key.reserve(additional);
    }

    /// Records an execution. Returns `true` if the instance was new. A
    /// duplicate with the same outcome is a silent no-op; a duplicate with a
    /// *different* outcome panics — it violates Def. 2's determinism and would
    /// silently corrupt every downstream guarantee.
    ///
    /// The map key is the instance's dense encoding (4 bytes per parameter),
    /// not a clone of the instance; the bitset index is updated in the same
    /// pass.
    // lint: allow(W001, reason = "per-record single-bit insert into the current epoch block, one bit per parameter -- not a bulk word-granularity scan", scope = "block")
    // lint: allow(W003, reason = "probe/overflow_find only return indices of runs already pushed; the expects state the Instance invariant that a dense key and its fingerprint travel together; current rows are (offset + value) * epoch_words slices of a block sized exactly so", scope = "block")
    pub fn record(&mut self, mut instance: Instance, eval: EvalResult) -> bool {
        // Resolve the dense key without cloning: a carried key is borrowed
        // straight through probe and index insert (the hot path allocates
        // nothing); only a key-less encodable instance pays one encode.
        let encoded: Option<Box<[u32]>> = if instance.dense_key().is_some() {
            debug_assert_eq!(
                instance.dense_key(),
                self.space.encode(&instance).as_deref(),
                "instance carries a dense key inconsistent with this store's space"
            );
            None
        } else {
            self.space.encode(&instance)
        };
        if instance.dense_key().is_none() && encoded.is_none() {
            // Unencodable: the interpretive overflow path.
            if let Some(i) = self.overflow_find(&instance) {
                assert_eq!(
                    self.runs[i].eval.outcome,
                    eval.outcome,
                    "non-deterministic evaluation for instance {}",
                    instance.display(&self.space)
                );
                return false;
            }
            let idx = self.runs.len();
            self.by_key.push_overflow_row(idx as u32);
            self.overflow.push(idx as u32);
            return self.finish_record(instance, eval);
        }
        {
            let (fp, key): (u64, &[u32]) = match &encoded {
                Some(k) => (hash_dense_key(k), k),
                None => (
                    instance
                        .dense_fingerprint()
                        .expect("fingerprint accompanies the dense key"),
                    instance.dense_key().expect("dense key checked above"),
                ),
            };
            let slot = match self.by_key.probe(fp, key) {
                Ok(i) => {
                    assert_eq!(
                        self.runs[i].eval.outcome,
                        eval.outcome,
                        "non-deterministic evaluation for instance {}",
                        instance.display(&self.space)
                    );
                    return false;
                }
                Err(slot) => slot,
            };
            let idx = self.runs.len();
            let in_epoch = self.tail_runs;
            debug_assert_eq!(in_epoch, idx % self.epoch_runs);
            let (word, bit) = (in_epoch / 64, 1u64 << (in_epoch % 64));
            let w = self.epoch_words;
            for (&off, &vi) in self.offsets.iter().zip(key) {
                self.current[(off as usize + vi as usize) * w + word] |= bit;
            }
            self.by_key.insert_at(slot, fp, idx as u32, key);
        }
        if let Some(k) = encoded {
            instance.set_dense(k);
        }
        self.finish_record(instance, eval)
    }

    /// The shared tail of [`record`](Self::record): outcome bits, the run
    /// log append, and the epoch-boundary freeze. Always returns `true`.
    fn finish_record(&mut self, instance: Instance, eval: EvalResult) -> bool {
        let idx = self.runs.len();
        match eval.outcome {
            Outcome::Fail => self.fail_bits.insert(idx),
            Outcome::Succeed => self.succeed_bits.insert(idx),
        }
        self.runs.push(Run { instance, eval });
        self.tail_runs += 1;
        if self.tail_runs == self.epoch_runs {
            self.freeze_current_epoch();
            self.tail_runs = 0;
        }
        true
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if no runs are recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// All runs, in recording order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Runs per epoch of the segmented value index.
    pub fn epoch_runs(&self) -> usize {
        self.epoch_runs
    }

    /// The recorded evaluation of an instance, if it was executed.
    ///
    /// When the probe carries its dense key (the common case on the hot
    /// path), this is a single FxHash probe over a few `u32`s.
    // lint: allow(W003, reason = "the expect states the Instance invariant that a dense key and its fingerprint travel together; key-index probes only return indices of recorded runs", scope = "block")
    pub fn lookup(&self, instance: &Instance) -> Option<&EvalResult> {
        if let Some(k) = instance.dense_key() {
            debug_assert_eq!(
                Some(k),
                self.space.encode(instance).as_deref(),
                "instance carries a dense key inconsistent with this store's space"
            );
            let fp = instance
                .dense_fingerprint()
                .expect("fingerprint accompanies the dense key");
            return self.by_key.get(fp, k).map(|i| &self.runs[i].eval);
        }
        match self.space.encode(instance) {
            Some(k) => self
                .by_key
                .get(hash_dense_key(&k), &k)
                .map(|i| &self.runs[i].eval),
            None => self.overflow_find(instance).map(|i| &self.runs[i].eval),
        }
    }

    /// The recorded outcome of an instance, if it was executed.
    pub fn outcome_of(&self, instance: &Instance) -> Option<Outcome> {
        self.lookup(instance).map(|e| e.outcome)
    }

    /// Iterates over failing instances (in recording order).
    // lint: allow(W003, reason = "outcome bitsets only ever hold indices of recorded runs", scope = "block")
    pub fn failing(&self) -> impl Iterator<Item = &Instance> {
        self.fail_bits.ones().map(|i| &self.runs[i].instance)
    }

    /// Iterates over succeeding instances (in recording order).
    // lint: allow(W003, reason = "outcome bitsets only ever hold indices of recorded runs", scope = "block")
    pub fn succeeding(&self) -> impl Iterator<Item = &Instance> {
        self.succeed_bits.ones().map(|i| &self.runs[i].instance)
    }

    /// Number of failing runs (one popcount pass; no iteration).
    pub fn num_failing(&self) -> usize {
        self.fail_bits.count()
    }

    /// Number of succeeding runs (one popcount pass; no iteration).
    pub fn num_succeeding(&self) -> usize {
        self.succeed_bits.count()
    }

    /// The first failing instance, if any — the `CP_f` Stacked Shortcut picks
    /// from the history (Algorithm 2).
    pub fn first_failing(&self) -> Option<&Instance> {
        self.failing().next()
    }

    /// Succeeding instances disjoint from `from` (Def. 6), in recording order.
    pub fn disjoint_successes<'a>(
        &'a self,
        from: &'a Instance,
    ) -> impl Iterator<Item = &'a Instance> + 'a {
        self.succeeding().filter(move |g| g.is_disjoint_from(from))
    }

    /// Greedily selects up to `k` succeeding instances that are disjoint from
    /// `from` and mutually disjoint — the `CP_G` set of Algorithm 2. If fewer
    /// than `k` mutually disjoint successes exist, the result is shorter
    /// ("mutually disjoint if possible").
    pub fn mutually_disjoint_successes<'s>(
        &'s self,
        from: &Instance,
        k: usize,
    ) -> Vec<&'s Instance> {
        let mut picked: Vec<&'s Instance> = Vec::new();
        for run in &self.runs {
            if picked.len() == k {
                break;
            }
            let g = &run.instance;
            if run.outcome().is_succeed()
                && g.is_disjoint_from(from)
                && picked.iter().all(|p| p.is_disjoint_from(g))
            {
                picked.push(g);
            }
        }
        picked
    }

    /// The succeeding instance most different from `from` (maximum Hamming
    /// distance) — the heuristic fallback when the Disjointness Condition
    /// fails (paper §4.1: "take an instance that differs in as many
    /// parameter-values as possible"). Ties break to the earliest run.
    pub fn most_different_success(&self, from: &Instance) -> Option<&Instance> {
        let mut best: Option<(usize, &Instance)> = None;
        // Recording order + strict improvement ⇒ the earliest run wins ties.
        for g in self.succeeding() {
            let d = g.hamming_distance(from);
            if best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, g));
            }
        }
        best.map(|(_, g)| g)
    }

    /// The Shortcut sanity check (Algorithm 1, final loop): is there a
    /// *succeeding* run whose parameter-values are a superset of the
    /// hypothetical root cause `D`? If so, `D` is not definitive. A batch of
    /// one through the scan of
    /// [`succeeding_superset_exists_many`](Self::succeeding_superset_exists_many).
    pub fn succeeding_superset_exists(&self, cause: &Conjunction) -> bool {
        let mut out = [false];
        self.superset_scan(std::slice::from_ref(cause), &mut out);
        out[0]
    }

    /// [`succeeding_superset_exists`](Self::succeeding_superset_exists) for
    /// a batch of candidate causes in one epoch-major scan. Results are
    /// identical to calling the single-cause check once per cause.
    pub fn succeeding_superset_exists_many(&self, causes: &[Conjunction]) -> Vec<bool> {
        let mut out = vec![false; causes.len()];
        self.superset_scan(causes, &mut out);
        out
    }

    /// The one superset scan: sets `out[i]` (`out.len() == causes.len()`,
    /// all `false` on entry) for every cause with a succeeding satisfying
    /// run. Overflow runs go first — a handful of interpretive checks, and
    /// a hit skips planning — then the in-progress epoch (most recent,
    /// cheapest to scan), then the frozen epochs **epoch-major**: every
    /// cause still pending is evaluated against a block while it is
    /// cache-hot and drops out at its first succeeding intersection. The
    /// satisfying set is never materialized.
    // lint: allow(W003, reason = "plans hold positions below causes.len() == out.len(); overflow only records indices of runs already pushed; the tail window is at most epoch_words long, the length of acc", scope = "block")
    fn superset_scan(&self, causes: &[Conjunction], out: &mut [bool]) {
        debug_assert_eq!(causes.len(), out.len());
        let mut plans: Vec<(usize, Vec<PredPlan>)> = Vec::new();
        for (i, cause) in causes.iter().enumerate() {
            if cause.is_empty() {
                out[i] = !self.succeed_bits.is_empty();
            } else if self.overflow.iter().any(|&r| {
                let run = &self.runs[r as usize];
                run.outcome().is_succeed() && cause.satisfied_by(&run.instance)
            }) {
                out[i] = true;
            } else {
                plans.push((i, self.plan_predicates(cause)));
            }
        }
        if plans.is_empty() {
            return;
        }
        self.note_scans(plans.len());
        let w = self.epoch_words;
        let full = self.blocks.len();
        let succeed = self.succeed_bits.words();
        let mut acc = vec![0u64; w];
        let tail = &mut acc[..self.tail_runs.div_ceil(64)];
        if !tail.is_empty() {
            let tail_succeed = words_from(succeed, full * w);
            plans.retain(|(i, preds)| {
                let hit = self.current_acc_into(preds, tail) && kernels::and_any(tail, tail_succeed);
                out[*i] |= hit;
                !hit
            });
        }
        let mut scratch = TermScratch::default();
        for e in 0..full {
            if plans.is_empty() {
                break;
            }
            let epoch_succeed = words_from(succeed, e * w);
            plans.retain(|(i, preds)| {
                let hit = self.epoch_acc_into(e, preds, &mut scratch, &mut acc)
                    && kernels::and_any(&acc, epoch_succeed);
                out[*i] |= hit;
                !hit
            });
        }
    }

    /// Counts `(failing, succeeding)` runs satisfying a conjunction — fused
    /// AND-of-ORs + popcount per epoch against the outcome bitsets, never
    /// materializing the satisfying set.
    // lint: allow(W003, reason = "overflow holds recorded run indices; the tail window is at most epoch_words long, the length of acc", scope = "block")
    pub fn support(&self, cause: &Conjunction) -> (usize, usize) {
        if cause.is_empty() {
            return (self.num_failing(), self.num_succeeding());
        }
        let preds = self.plan_predicates(cause);
        self.note_scans(1);
        let w = self.epoch_words;
        let full = self.blocks.len();
        let mut scratch = TermScratch::default();
        let mut acc = vec![0u64; w];
        let (mut f, mut s) = (0usize, 0usize);
        for e in 0..full {
            if self.epoch_acc_into(e, &preds, &mut scratch, &mut acc) {
                let (ef, es) = self.outcome_counts_at(e * w, &acc);
                f += ef;
                s += es;
            }
        }
        let tail = &mut acc[..self.tail_runs.div_ceil(64)];
        if !tail.is_empty() && self.current_acc_into(&preds, tail) {
            let (ef, es) = self.outcome_counts_at(full * w, tail);
            f += ef;
            s += es;
        }
        for &i in &self.overflow {
            let run = &self.runs[i as usize];
            if cause.satisfied_by(&run.instance) {
                match run.outcome() {
                    Outcome::Fail => f += 1,
                    Outcome::Succeed => s += 1,
                }
            }
        }
        (f, s)
    }

    /// Parses a history from the TSV layout produced by [`Self::to_tsv`]
    /// (parameter columns in space order, then `score`, then `evaluation`).
    /// Values are matched against the parameter domains by their display
    /// form after unescaping (see [`Self::to_tsv`]); `score` is a float or
    /// `-`. A cell with a malformed escape sequence is
    /// [`TsvError::Escape`]; a row repeating an earlier row's instance with
    /// the other evaluation is [`TsvError::Conflict`] (with the same
    /// evaluation it is skipped).
    ///
    /// Compatibility note: files written before escaping existed that
    /// contain *literal* backslashes in values are now interpreted as
    /// escapes (rejected when malformed) — deliberate: a raw backslash is
    /// ambiguous against the escaped format, and rejecting beats silently
    /// loading a different value. Re-export such histories with the current
    /// `to_tsv`.
    pub fn from_tsv(space: Arc<ParamSpace>, text: &str) -> Result<Self, TsvError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(TsvError::Empty)?;
        let cols: Vec<String> = header
            .split('\t')
            .map(|cell| {
                unescape_tsv(cell).ok_or(TsvError::Escape {
                    line: 1,
                    cell: cell.to_string(),
                })
            })
            .collect::<Result<_, _>>()?;
        let expected: Vec<String> = space
            .iter()
            .map(|(_, d)| d.name().to_string())
            .chain(["score".to_string(), "evaluation".to_string()])
            .collect();
        if cols != expected {
            return Err(TsvError::Header {
                expected: expected.join("\t"),
                found: header.to_string(),
            });
        }

        let mut store = ProvenanceStore::new(space.clone());
        for (line_no, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split('\t').collect();
            if cells.len() != space.len() + 2 {
                return Err(TsvError::Arity {
                    line: line_no + 1,
                    expected: space.len() + 2,
                    found: cells.len(),
                });
            }
            let mut indices = Vec::with_capacity(space.len());
            for (p, cell) in space.ids().zip(cells.iter()) {
                let unescaped = unescape_tsv(cell).ok_or_else(|| TsvError::Escape {
                    line: line_no + 1,
                    cell: cell.to_string(),
                })?;
                let domain = space.domain(p);
                let idx = domain
                    .values()
                    .iter()
                    .position(|v| v.to_string() == unescaped)
                    .ok_or_else(|| TsvError::Value {
                        line: line_no + 1,
                        param: space.param(p).name().to_string(),
                        cell: cell.to_string(),
                    })?;
                indices.push(idx as u32);
            }
            // lint: allow(W003, reason = "cells.len() == space.len() + 2 is checked at the top of the row loop, so the score cell exists")
            let score = match cells[space.len()] {
                "-" => None,
                s => Some(s.parse::<f64>().map_err(|_| TsvError::Score {
                    line: line_no + 1,
                    cell: s.to_string(),
                })?),
            };
            // lint: allow(W003, reason = "same arity check covers the evaluation cell")
            let outcome = match cells[space.len() + 1] {
                "succeed" => Outcome::Succeed,
                "fail" => Outcome::Fail,
                other => {
                    return Err(TsvError::Evaluation {
                        line: line_no + 1,
                        cell: other.to_string(),
                    })
                }
            };
            let instance = space.instance_from_indices(&indices);
            // A repeated row with the same evaluation is a no-op in `record`;
            // one with the other evaluation would trip its determinism
            // assert, so it is refused here with its line.
            if let Some(earlier) = store.outcome_of(&instance).filter(|&e| e != outcome) {
                return Err(TsvError::Conflict {
                    line: line_no + 1,
                    instance: instance.display(&space).to_string(),
                    earlier,
                    found: outcome,
                });
            }
            store.record(instance, EvalResult { outcome, score });
        }
        Ok(store)
    }

    /// Serializes the history as a TSV table (header + one row per run):
    /// parameter columns, then `score`, then `evaluation` — the layout of the
    /// paper's Tables 1 and 2.
    ///
    /// Parameter names and values containing TSV structure characters are
    /// backslash-escaped (`\t` tab, `\n` newline, `\r` carriage return,
    /// `\\` backslash), so a hostile string value cannot smuggle extra
    /// cells or rows into the table; [`Self::from_tsv`] reverses the
    /// escaping.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (i, (_, def)) in self.space.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            escape_tsv_into(def.name(), &mut out);
        }
        out.push_str("\tscore\tevaluation\n");
        for run in &self.runs {
            for (i, v) in run.instance.values().iter().enumerate() {
                if i > 0 {
                    out.push('\t');
                }
                escape_tsv_into(&v.to_string(), &mut out);
            }
            match run.eval.score {
                Some(s) => {
                    let _ = write!(out, "\t{s}");
                }
                None => out.push_str("\t-"),
            }
            let _ = writeln!(out, "\t{}", run.outcome());
        }
        out
    }
}

/// Names kept only for the end-to-end benchmark (`e2ebench/`), which
/// compiles against them and is their only caller. ROADMAP direction 2's
/// benchmark step drops its calls and then deletes this block.
impl ProvenanceStore {
    /// [`support`](Self::support): exact counts are admissible bounds.
    pub fn support_bounds(&self, cause: &Conjunction) -> (usize, usize) {
        self.support(cause)
    }

    /// [`succeeding_superset_exists`](Self::succeeding_superset_exists):
    /// the same scan.
    pub fn succeeding_superset_exists_exact(&self, cause: &Conjunction) -> bool {
        self.succeeding_superset_exists(cause)
    }
}

/// Appends `s` to `out`, backslash-escaping the characters that would be
/// read as TSV structure (tab, newline, carriage return) plus the escape
/// character itself.
fn escape_tsv_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
}

/// Reverses [`escape_tsv_into`]. `None` on a malformed escape (a lone
/// trailing backslash or an unknown `\x` pair) — the file was not produced
/// by `to_tsv` and guessing would corrupt the value.
fn unescape_tsv(cell: &str) -> Option<String> {
    if !cell.contains('\\') {
        return Some(cell.to_string());
    }
    let mut out = String::with_capacity(cell.len());
    let mut chars = cell.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// Why a provenance TSV could not be parsed; see [`ProvenanceStore::from_tsv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsvError {
    /// No header line.
    Empty,
    /// The header does not match the space's layout.
    Header {
        /// The layout the space requires.
        expected: String,
        /// The header found.
        found: String,
    },
    /// A row has the wrong number of cells.
    Arity {
        /// 1-based line number.
        line: usize,
        /// Expected cell count.
        expected: usize,
        /// Found cell count.
        found: usize,
    },
    /// A cell is not a value of its parameter's universe.
    Value {
        /// 1-based line number.
        line: usize,
        /// Parameter name.
        param: String,
        /// The offending cell.
        cell: String,
    },
    /// The score cell is neither a float nor `-`.
    Score {
        /// 1-based line number.
        line: usize,
        /// The offending cell.
        cell: String,
    },
    /// The evaluation cell is neither `succeed` nor `fail`.
    Evaluation {
        /// 1-based line number.
        line: usize,
        /// The offending cell.
        cell: String,
    },
    /// A cell carries a malformed backslash escape (lone trailing `\` or an
    /// unknown `\x` sequence).
    Escape {
        /// 1-based line number.
        line: usize,
        /// The offending cell.
        cell: String,
    },
    /// A row repeats an earlier row's instance with the other evaluation.
    /// Evaluations are deterministic (paper §3, Def. 2), so the file
    /// contradicts itself.
    Conflict {
        /// 1-based line number of the second row.
        line: usize,
        /// The instance, rendered against the space.
        instance: String,
        /// The evaluation an earlier row gave.
        earlier: Outcome,
        /// The evaluation this row gives.
        found: Outcome,
    },
}

impl std::fmt::Display for TsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsvError::Empty => write!(f, "empty provenance TSV"),
            TsvError::Header { expected, found } => {
                write!(f, "header mismatch: expected {expected:?}, found {found:?}")
            }
            TsvError::Arity {
                line,
                expected,
                found,
            } => write!(f, "line {line}: expected {expected} cells, found {found}"),
            TsvError::Value { line, param, cell } => write!(
                f,
                "line {line}: {cell:?} is not in the universe of parameter {param:?}"
            ),
            TsvError::Score { line, cell } => {
                write!(f, "line {line}: score {cell:?} is not a number or '-'")
            }
            TsvError::Evaluation { line, cell } => write!(
                f,
                "line {line}: evaluation {cell:?} must be 'succeed' or 'fail'"
            ),
            TsvError::Escape { line, cell } => write!(
                f,
                "line {line}: cell {cell:?} has a malformed backslash escape"
            ),
            TsvError::Conflict {
                line,
                instance,
                earlier,
                found,
            } => write!(
                f,
                "line {line}: {instance} is evaluated '{found}' here but '{earlier}' on an \
                 earlier line; evaluations must be deterministic"
            ),
        }
    }
}

impl std::error::Error for TsvError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::value::Value;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .categorical("Dataset", ["Iris", "Digits", "Images"])
            .categorical("Estimator", ["LR", "DT", "GB"])
            .ordinal("Version", [1, 2])
            .build()
    }

    fn inst(s: &ParamSpace, d: &str, e: &str, v: i64) -> Instance {
        Instance::from_pairs(
            s,
            [
                ("Dataset", d.into()),
                ("Estimator", e.into()),
                ("Version", v.into()),
            ],
        )
    }

    /// The paper's Table 1 history.
    fn table1(s: &Arc<ParamSpace>) -> ProvenanceStore {
        ProvenanceStore::with_runs(
            s.clone(),
            [
                Run {
                    instance: inst(s, "Iris", "LR", 1),
                    eval: EvalResult::from_score_at_least(0.9, 0.6),
                },
                Run {
                    instance: inst(s, "Digits", "DT", 1),
                    eval: EvalResult::from_score_at_least(0.8, 0.6),
                },
                Run {
                    instance: inst(s, "Iris", "GB", 2),
                    eval: EvalResult::from_score_at_least(0.2, 0.6),
                },
            ],
        )
    }

    #[test]
    fn record_dedups_and_counts() {
        let s = space();
        let mut p = table1(&s);
        assert_eq!(p.len(), 3);
        // Re-recording the same instance/outcome is a no-op.
        assert!(!p.record(
            inst(&s, "Iris", "LR", 1),
            EvalResult::from_score_at_least(0.9, 0.6)
        ));
        assert_eq!(p.len(), 3);
        assert!(p.record(inst(&s, "Images", "GB", 1), Outcome::Succeed.into()));
        assert_eq!(p.len(), 4);
    }

    #[test]
    #[should_panic(expected = "non-deterministic evaluation")]
    fn conflicting_duplicate_panics() {
        let s = space();
        let mut p = table1(&s);
        p.record(inst(&s, "Iris", "LR", 1), Outcome::Fail.into());
    }

    #[test]
    fn failing_and_succeeding_queries() {
        let s = space();
        let p = table1(&s);
        assert_eq!(p.failing().count(), 1);
        assert_eq!(p.succeeding().count(), 2);
        assert_eq!(p.first_failing().unwrap(), &inst(&s, "Iris", "GB", 2));
        assert_eq!(p.outcome_of(&inst(&s, "Iris", "GB", 2)), Some(Outcome::Fail));
        assert_eq!(p.outcome_of(&inst(&s, "Images", "LR", 1)), None);
    }

    #[test]
    fn disjoint_successes_match_paper_example() {
        // Paper §4.1 Example 1: the only disjoint success w.r.t. CP_f
        // (Iris, GB, 2.0) is (Digits, DT, 1.0).
        let s = space();
        let p = table1(&s);
        let cpf = inst(&s, "Iris", "GB", 2);
        let disjoint: Vec<_> = p.disjoint_successes(&cpf).collect();
        assert_eq!(disjoint, vec![&inst(&s, "Digits", "DT", 1)]);
    }

    #[test]
    fn mutually_disjoint_selection() {
        let s = space();
        let mut p = table1(&s);
        // Add a second success disjoint from CP_f but NOT from (Digits,DT,1).
        p.record(inst(&s, "Digits", "LR", 1), Outcome::Succeed.into());
        // And one mutually disjoint from both.
        p.record(inst(&s, "Images", "DT", 1), Outcome::Succeed.into());
        let cpf = inst(&s, "Iris", "GB", 2);
        let picked = p.mutually_disjoint_successes(&cpf, 4);
        assert_eq!(picked.len(), 1, "Version=1 is shared, so only one pick");
        // With a distinct version the third is mutually disjoint... build one:
        // (Images, LR, 1) shares Version with all; the space only has 2
        // versions so mutual disjointness caps at 2 successes (versions 1,2).
        assert!(picked[0].is_disjoint_from(&cpf));
    }

    #[test]
    fn most_different_fallback() {
        let s = space();
        let mut p = ProvenanceStore::new(s.clone());
        let cpf = inst(&s, "Iris", "GB", 2);
        p.record(inst(&s, "Iris", "LR", 2), Outcome::Succeed.into()); // distance 1
        p.record(inst(&s, "Iris", "DT", 1), Outcome::Succeed.into()); // distance 2
        assert_eq!(
            p.most_different_success(&cpf).unwrap(),
            &inst(&s, "Iris", "DT", 1)
        );
        // Tie at distance 2 breaks to the earliest run.
        p.record(inst(&s, "Iris", "LR", 1), Outcome::Succeed.into()); // distance 2
        assert_eq!(
            p.most_different_success(&cpf).unwrap(),
            &inst(&s, "Iris", "DT", 1)
        );
    }

    #[test]
    fn succeeding_superset_check() {
        let s = space();
        let p = table1(&s);
        let version = s.by_name("Version").unwrap();
        // D = {Version = 1}: (Iris,LR,1) succeeded and contains it.
        let d1 = Conjunction::new(vec![Predicate::eq(version, 1)]);
        assert!(p.succeeding_superset_exists(&d1));
        // D = {Version = 2}: the only run with version 2 failed.
        let d2 = Conjunction::new(vec![Predicate::eq(version, 2)]);
        assert!(!p.succeeding_superset_exists(&d2));
    }

    #[test]
    fn support_counts() {
        let s = space();
        let p = table1(&s);
        let ds = s.by_name("Dataset").unwrap();
        let c = Conjunction::new(vec![Predicate::eq(ds, Value::from("Iris"))]);
        assert_eq!(p.support(&c), (1, 1));
        assert_eq!(p.support(&Conjunction::top()), (1, 2));
    }

    #[test]
    fn batched_superset_matches_exact_scalar() {
        let (s, p) = epoch_store(100);
        let x = s.by_name("x").unwrap();
        let y = s.by_name("y").unwrap();
        let causes: Vec<Conjunction> = (0..16)
            .map(|v| {
                let mut preds = vec![Predicate::eq(x, v as i64)];
                if v % 3 == 0 {
                    preds.push(Predicate::new(y, crate::Comparator::Gt, (v % 8) as i64));
                }
                Conjunction::new(preds)
            })
            .chain([Conjunction::top()])
            .collect();
        let batched = p.succeeding_superset_exists_many(&causes);
        let scalar: Vec<bool> = causes
            .iter()
            .map(|c| p.succeeding_superset_exists(c))
            .collect();
        assert_eq!(batched, scalar);
    }

    /// Records the first `n` distinct instances of a 16×8 space (128 total,
    /// so several 64-run epochs fill) through a store with 64-run epochs;
    /// failing iff x == 3.
    fn epoch_store(n: usize) -> (Arc<ParamSpace>, ProvenanceStore) {
        let s = ParamSpace::builder()
            .ordinal("x", (0..16).collect::<Vec<_>>())
            .ordinal("y", (0..8).collect::<Vec<_>>())
            .build();
        let x = s.by_name("x").unwrap();
        let mut p = ProvenanceStore::with_epoch_size(s.clone(), 64);
        for inst in s.instances().take(n) {
            let outcome = Outcome::from_check(inst.get(x) != &crate::Value::from(3));
            p.record(inst, EvalResult::of(outcome));
        }
        (s, p)
    }

    #[test]
    fn tsv_layout() {
        let s = space();
        let p = table1(&s);
        let tsv = p.to_tsv();
        let mut lines = tsv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "Dataset\tEstimator\tVersion\tscore\tevaluation"
        );
        assert_eq!(lines.next().unwrap(), "Iris\tLR\t1\t0.9\tsucceed");
        assert_eq!(tsv.lines().count(), 4);
    }
}

#[cfg(test)]
mod tsv_tests {
    use super::*;
    use crate::value::Value;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .categorical("Dataset", ["Iris", "Digits"])
            .ordinal("Version", [1, 2])
            .build()
    }

    #[test]
    fn roundtrip() {
        let s = space();
        let mut prov = ProvenanceStore::new(s.clone());
        prov.record(
            Instance::from_pairs(&s, [("Dataset", "Iris".into()), ("Version", 2.into())]),
            EvalResult::from_score_at_least(0.2, 0.6),
        );
        prov.record(
            Instance::from_pairs(&s, [("Dataset", "Digits".into()), ("Version", 1.into())]),
            EvalResult::of(Outcome::Succeed),
        );
        let parsed = ProvenanceStore::from_tsv(s.clone(), &prov.to_tsv()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.failing().count(), 1);
        let inst = Instance::from_pairs(&s, [("Dataset", "Iris".into()), ("Version", 2.into())]);
        assert_eq!(parsed.lookup(&inst).unwrap().score, Some(0.2));
        // Serializing again reproduces the text.
        assert_eq!(parsed.to_tsv(), prov.to_tsv());
    }

    #[test]
    fn header_mismatch() {
        let s = space();
        let err = ProvenanceStore::from_tsv(s, "A\tB\tscore\tevaluation\n").unwrap_err();
        assert!(matches!(err, TsvError::Header { .. }));
        assert!(err.to_string().contains("header mismatch"));
    }

    #[test]
    fn unknown_value_rejected() {
        let s = space();
        let text = "Dataset\tVersion\tscore\tevaluation\nWine\t1\t-\tsucceed\n";
        let err = ProvenanceStore::from_tsv(s, text).unwrap_err();
        assert!(matches!(err, TsvError::Value { ref param, .. } if param == "Dataset"));
    }

    #[test]
    fn bad_arity_and_score_and_eval() {
        let s = space();
        let base = "Dataset\tVersion\tscore\tevaluation\n";
        assert!(matches!(
            ProvenanceStore::from_tsv(s.clone(), &format!("{base}Iris\t1\tsucceed\n")).unwrap_err(),
            TsvError::Arity { .. }
        ));
        assert!(matches!(
            ProvenanceStore::from_tsv(s.clone(), &format!("{base}Iris\t1\tbad\tsucceed\n"))
                .unwrap_err(),
            TsvError::Score { .. }
        ));
        assert!(matches!(
            ProvenanceStore::from_tsv(s.clone(), &format!("{base}Iris\t1\t-\tmaybe\n"))
                .unwrap_err(),
            TsvError::Evaluation { .. }
        ));
        assert!(matches!(
            ProvenanceStore::from_tsv(s, "").unwrap_err(),
            TsvError::Empty
        ));
    }

    /// A row repeating an instance with the other evaluation is an error
    /// naming its line (it used to panic in `record`); a repeat with the
    /// same evaluation stays a silent no-op.
    #[test]
    fn conflicting_rows_are_an_error_not_a_panic() {
        let s = space();
        let base = "Dataset\tVersion\tscore\tevaluation\nIris\t2\t-\tfail\n";
        let err = ProvenanceStore::from_tsv(s.clone(), &format!("{base}Iris\t2\t-\tsucceed\n"))
            .unwrap_err();
        assert_eq!(
            err,
            TsvError::Conflict {
                line: 3,
                instance: "{Dataset=Iris, Version=2}".to_string(),
                earlier: Outcome::Fail,
                found: Outcome::Succeed,
            }
        );
        assert!(err.to_string().starts_with("line 3: "), "{err}");
        let parsed = ProvenanceStore::from_tsv(s, &format!("{base}Iris\t2\t0.5\tfail\n")).unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn blank_lines_skipped() {
        let s = space();
        let text = "Dataset\tVersion\tscore\tevaluation\n\nIris\t1\t-\tsucceed\n\n";
        let parsed = ProvenanceStore::from_tsv(s, text).unwrap();
        assert_eq!(parsed.len(), 1);
        let _ = Value::from(1); // keep the import meaningful
    }

    /// Values containing the TSV structure characters — tabs, newlines,
    /// carriage returns, backslashes — must round-trip instead of smuggling
    /// extra cells or rows into the table.
    #[test]
    fn hostile_values_roundtrip() {
        let hostile = [
            "plain",
            "tab\there",
            "line\nbreak",
            "cr\rhere",
            "back\\slash",
            "\\t literal backslash-t",
            "trailing\\",
            "\t\n\r\\",
            "mix\tof\nall\r\\four",
        ];
        let s = ParamSpace::builder()
            .categorical("evil\tname", hostile)
            .ordinal("Version", [1, 2])
            .build();
        let mut prov = ProvenanceStore::new(s.clone());
        for (i, v) in hostile.iter().enumerate() {
            prov.record(
                Instance::from_pairs(&s, [("evil\tname", (*v).into()), ("Version", 1.into())]),
                EvalResult::of(Outcome::from_check(i % 2 == 0)),
            );
        }
        let tsv = prov.to_tsv();
        // Structure is intact: one header + one line per run, each with
        // exactly three tabs.
        assert_eq!(tsv.lines().count(), 1 + hostile.len());
        for line in tsv.lines() {
            assert_eq!(line.matches('\t').count(), 3, "line {line:?}");
        }
        let parsed = ProvenanceStore::from_tsv(s.clone(), &tsv).unwrap();
        assert_eq!(parsed.len(), prov.len());
        for (a, b) in parsed.runs().iter().zip(prov.runs()) {
            assert_eq!(a.instance, b.instance);
            assert_eq!(a.eval.outcome, b.eval.outcome);
        }
        assert_eq!(parsed.to_tsv(), tsv, "escaping is stable");
    }

    #[test]
    fn malformed_escape_rejected() {
        let s = space();
        let base = "Dataset\tVersion\tscore\tevaluation\n";
        // Lone trailing backslash.
        let err =
            ProvenanceStore::from_tsv(s.clone(), &format!("{base}Iris\\\t1\t-\tsucceed\n"))
                .unwrap_err();
        assert!(matches!(err, TsvError::Escape { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("malformed backslash escape"));
        // Unknown escape pair.
        let err = ProvenanceStore::from_tsv(s, &format!("{base}\\qIris\t1\t-\tsucceed\n"))
            .unwrap_err();
        assert!(matches!(err, TsvError::Escape { .. }));
    }

    #[test]
    fn escape_helpers_invert() {
        for s in ["", "a", "a\\tb", "\\\\", "plain text", "\t\n\r\\ all"] {
            let mut escaped = String::new();
            escape_tsv_into(s, &mut escaped);
            assert_eq!(unescape_tsv(&escaped).as_deref(), Some(s));
            assert!(!escaped.contains('\t') && !escaped.contains('\n'));
        }
        assert_eq!(unescape_tsv("bad\\"), None);
        assert_eq!(unescape_tsv("\\x"), None);
        assert_eq!(unescape_tsv("ok\\t"), Some("ok\t".to_string()));
    }
}
