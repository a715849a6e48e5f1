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
//! The run log is columnar: a run is its dense key, its outcome bit and, when
//! its evaluation carried one, its score. No [`Instance`] is kept; one is
//! built only when a caller asks for it ([`Runs::iter`],
//! [`ProvenanceStore::failing`], the disjoint-success queries), and the
//! queries that return instances scan keys and bits and build only what they
//! return. The columns:
//!
//! * **Dense instance keys** — every instance carries its key, one domain
//!   index per parameter ([`Instance::dense_key`]), and `by_key` maps the
//!   key to its run index through the fingerprint the instance precomputed
//!   ([`Instance::dense_fingerprint`]). Record and lookup are one probe
//!   each: no `Value` hashing, no encoding, no instance cloning. The keys
//!   themselves sit in one row-major arena, row `r` for run `r`; the arena
//!   is the log's only copy of each run's identity.
//! * **Outcomes** — the failing and succeeding runs as two bitsets over run
//!   indices; a run's outcome is its bit.
//! * **Scores** — `(run, score)` pairs, in run order, for the runs whose
//!   evaluation carried a score; a run without one costs nothing here.
//! * **(parameter, value) run bitsets** — one flat, row-major block of bit
//!   words over the whole log, one row per `(p, v)` pair: row
//!   `offsets[p] + v` holds bit `r` for every run `r` whose parameter `p`
//!   has value `v`, so recording a run sets one bit per parameter. Every
//!   row has the same capacity in words; when the run at index
//!   `64 · capacity` arrives, the block is copied into one with twice the
//!   capacity, so growth costs amortized O(1) words per run. A row's
//!   popcount against the failing runs is the support of `p = v`
//!   ([`ProvenanceStore::value_support`]), which seeds a decision tree's
//!   root histogram without reading a key.
//!
//! # Query paths
//!
//! Every query runs on the calling thread and is one exact scan over the
//! filled words of the rows it reads. A cause arrives canonical
//! ([`CanonicalCause`]): a cube of `u64` words over the whole space, one
//! block per parameter with one bit per domain value, which the store reads
//! in place. Its satisfying runs are, per constrained parameter (one whose
//! block is not full), one OR of the value rows of the block's set bits,
//! ANDed across parameters by the fused [`kernels`], so
//! [`support`](ProvenanceStore::support) and
//! [`succeeding_superset_exists`](ProvenanceStore::succeeding_superset_exists)
//! are word-parallel bit operations over the log instead of per-run
//! predicate interpretation. `support` popcounts that set against the
//! outcome bitsets; the superset check tests it against the succeeding
//! runs. In debug builds the scan asserts that the cube has the length of a
//! cube over the store's space.

use crate::bitset::RunSet;
use crate::cause::{CanonicalCause, Conjunction};
use crate::instance::Instance;
use crate::kernels;
use crate::outcome::{EvalResult, Outcome};
use crate::param::ParamSpace;
use std::borrow::Borrow;
use std::fmt::Write as _;
use std::sync::Arc;

/// Open-addressing index from dense instance keys to run indices.
///
/// Slots hold `(fingerprint, run)` pairs; the key bytes live in a flat
/// side arena (`arity` `u32`s per run), so every probe is hash → slot → one
/// contiguous arena row — no pointer chase through the run log. A fingerprint match is always confirmed against the
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
    // lint: allow(W003, reason = "every caller passes a run index whose row was appended by insert_at, so the arena slice r*arity..(r+1)*arity exists by construction", scope = "block")
    #[inline]
    fn row(&self, r: usize) -> &[u32] {
        &self.arena[r * self.arity..(r + 1) * self.arity]
    }

    /// Run `r`'s dense key, `None` past the last run.
    #[inline]
    fn get_row(&self, r: usize) -> Option<&[u32]> {
        self.arena.get(r * self.arity..(r + 1) * self.arity)
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

    /// Pre-sizes for `additional` further inserts: the arena reserves their
    /// key rows and the slot table jumps straight to the size `insert_at`'s
    /// growth rule would reach after them (at most half full), so a bulk
    /// load pays zero intermediate grow-and-rehash passes.
    fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional * self.arity);
        let needed = (self.len + additional) * 2;
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

/// One recorded execution, with its instance built: what [`Runs::iter`]
/// yields, and what [`ProvenanceStore::with_runs`] takes.
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

/// One recorded execution as the log holds it: the dense key, borrowed from
/// the store's key arena, and the evaluation. No instance is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRef<'a> {
    /// The executed instance's dense key: one domain index per parameter.
    pub key: &'a [u32],
    /// Its evaluation.
    pub eval: EvalResult,
}

impl RunRef<'_> {
    /// The binary outcome.
    pub fn outcome(&self) -> Outcome {
        self.eval.outcome
    }

    /// Builds the run's instance against `space`, the space the key was
    /// recorded under.
    pub fn instance(&self, space: &ParamSpace) -> Instance {
        space.instance_from_indices(self.key)
    }

    /// Builds the run: its instance against `space`, and its evaluation.
    pub fn to_run(&self, space: &ParamSpace) -> Run {
        Run {
            instance: self.instance(space),
            eval: self.eval,
        }
    }
}

impl<'a> From<&'a Run> for RunRef<'a> {
    fn from(run: &'a Run) -> Self {
        RunRef {
            key: run.instance.dense_key(),
            eval: run.eval,
        }
    }
}

/// The run log of a [`ProvenanceStore`], borrowed: see
/// [`ProvenanceStore::runs`]. It reads the store's columns in place;
/// [`iter`](Self::iter) builds each run's instance as it reaches it, while
/// [`get`](Self::get), [`last`](Self::last) and [`refs`](Self::refs) build
/// none.
#[derive(Clone, Copy)]
pub struct Runs<'a> {
    store: &'a ProvenanceStore,
}

impl<'a> Runs<'a> {
    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no runs are recorded.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Run `r` as the log holds it, if it was recorded.
    pub fn get(&self, r: usize) -> Option<RunRef<'a>> {
        let key = self.store.by_key.get_row(r)?;
        let score = self.store.score_of(r);
        Some(self.store.run_ref(r, key, score))
    }

    /// The newest run as the log holds it.
    pub fn last(&self) -> Option<RunRef<'a>> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Every run as the log holds it, in recording order.
    pub fn refs(&self) -> RunRefs<'a> {
        RunRefs {
            store: self.store,
            next: 0,
            scores: self.store.scores.iter().peekable(),
        }
    }

    /// Every run in recording order, each one's instance built as the
    /// iterator reaches it.
    pub fn iter(&self) -> RunsIter<'a> {
        RunsIter { refs: self.refs() }
    }

    /// Every run, built.
    pub fn to_vec(&self) -> Vec<Run> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for Runs<'a> {
    type Item = Run;
    type IntoIter = RunsIter<'a>;

    fn into_iter(self) -> RunsIter<'a> {
        self.iter()
    }
}

/// Two logs are equal when they hold equal runs in the same order.
impl PartialEq for Runs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Runs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The runs of a log as it holds them, in recording order; see
/// [`Runs::refs`].
pub struct RunRefs<'a> {
    store: &'a ProvenanceStore,
    next: usize,
    /// The score column from the first scored run at or after `next`.
    scores: std::iter::Peekable<std::slice::Iter<'a, (u32, f64)>>,
}

impl<'a> Iterator for RunRefs<'a> {
    type Item = RunRef<'a>;

    fn next(&mut self) -> Option<RunRef<'a>> {
        let r = self.next;
        let key = self.store.by_key.get_row(r)?;
        self.next += 1;
        let score = self
            .scores
            .next_if(|&&(i, _)| i as usize == r)
            .map(|&(_, s)| s);
        Some(self.store.run_ref(r, key, score))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.store.len().saturating_sub(self.next);
        (left, Some(left))
    }
}

/// The runs of a log in recording order, built; see [`Runs::iter`].
pub struct RunsIter<'a> {
    refs: RunRefs<'a>,
}

impl Iterator for RunsIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let run = self.refs.next()?;
        Some(run.to_run(&self.refs.store.space))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.refs.size_hint()
    }
}

/// The execution history of a pipeline, deduplicated by instance.
///
/// The evaluation procedure is deterministic (paper §3, Def. 2), so recording
/// the same instance twice with conflicting outcomes is a bug; `record`
/// detects and reports it. See the module docs for the columnar run log and
/// the bitset index this store maintains.
#[derive(Debug, Clone)]
pub struct ProvenanceStore {
    space: Arc<ParamSpace>,
    /// Dense instance key → run index; its arena is the key column.
    by_key: KeyIndex,
    /// `(run, score)` for every run whose evaluation carried a score, in run
    /// order.
    scores: Vec<(u32, f64)>,
    /// Row of parameter `p`'s first value in the value index.
    offsets: Vec<u32>,
    /// The value index: one row of `cap` words per `(parameter, value)`
    /// pair, row-major, row `offsets[p] + v` at `bits[row * cap..]`.
    bits: Vec<u64>,
    /// Words per row of `bits`: at least 1, and always at least
    /// `len().div_ceil(64)`, so every recorded run has its bit column.
    cap: usize,
    /// Runs that failed.
    fail_bits: RunSet,
    /// Runs that succeeded.
    succeed_bits: RunSet,
}

impl ProvenanceStore {
    /// An empty history over a space.
    pub fn new(space: Arc<ParamSpace>) -> Self {
        let mut offsets = Vec::with_capacity(space.len());
        let mut rows = 0u32;
        for p in space.ids() {
            offsets.push(rows);
            rows += space.domain(p).len() as u32;
        }
        let arity = space.len();
        ProvenanceStore {
            space,
            by_key: KeyIndex::new(arity),
            scores: Vec::new(),
            offsets,
            bits: vec![0u64; rows as usize],
            cap: 1,
            fail_bits: RunSet::new(),
            succeed_bits: RunSet::new(),
        }
    }

    /// Doubles the words per row of the value index: each row is copied
    /// into a block with twice the capacity, its new words zeroed.
    fn grow_rows(&mut self) {
        let mut bits = Vec::with_capacity(self.bits.len() * 2);
        for row in self.bits.chunks_exact(self.cap) {
            bits.extend_from_slice(row);
            bits.resize(bits.len() + self.cap, 0);
        }
        self.bits = bits;
        self.cap *= 2;
    }

    /// The first `words` words of value-index row `row`.
    // lint: allow(W003, reason = "row = offsets[p] + v with v below p's domain length, so it is one of the block's rows; callers pass words = len().div_ceil(64), which record keeps <= cap by growing the block before run 64 * cap", scope = "block")
    #[inline]
    fn row(&self, row: usize, words: usize) -> &[u64] {
        let at = row * self.cap;
        &self.bits[at..at + words]
    }

    /// The runs in a cause's product set, as a bitset of the log's filled
    /// words (`len().div_ceil(64)`): per constrained parameter the OR of the
    /// value rows of its block's set bits, ANDed across parameters by the
    /// fused [`kernels`]. `None` when no run lies in the set; the AND stops at
    /// the first parameter that empties it. The cause must constrain some
    /// parameter, and its cube must be one over this store's space.
    // lint: allow(W003, reason = "offsets holds one entry per parameter of the space the cause's cube is laid out over, and each allowed index is below that parameter's domain length", scope = "block")
    fn matching_runs(&self, cause: &CanonicalCause) -> Option<Vec<u64>> {
        debug_assert_eq!(
            cause.words().len(),
            self.space.top().words().len(),
            "cube over another space"
        );
        let words = self.len().div_ceil(64);
        let mut acc = vec![0u64; words];
        let mut rows: Vec<&[u64]> = Vec::new();
        for (i, p) in cause.constrained(&self.space).enumerate() {
            let base = self.offsets[p.index()] as usize;
            rows.clear();
            rows.extend(
                cause
                    .allowed(&self.space, p)
                    .map(|v| self.row(base + v, words)),
            );
            if i == 0 {
                kernels::or_multi_into(&mut acc, &rows);
            } else {
                kernels::and_or_multi_into(&mut acc, &rows);
            }
            if kernels::is_zero(&acc) {
                return None;
            }
        }
        Some(acc)
    }

    /// A history pre-seeded with given runs (the paper's "previously run
    /// instances"). Panics on conflicting duplicate evaluations.
    pub fn with_runs(space: Arc<ParamSpace>, runs: impl IntoIterator<Item = Run>) -> Self {
        let mut store = ProvenanceStore::new(space);
        for run in runs {
            store.record(&run.instance, run.eval);
        }
        store
    }

    /// The parameter space.
    pub fn space(&self) -> &Arc<ParamSpace> {
        &self.space
    }

    /// Records an execution. Returns `true` if the instance was new. A
    /// duplicate with the same outcome is a silent no-op; a duplicate with a
    /// *different* outcome panics — it violates Def. 2's determinism and would
    /// silently corrupt every downstream guarantee.
    ///
    /// The instance is borrowed: the log keeps its dense key (4 bytes per
    /// parameter, appended to the key arena by the key-index insert), its
    /// outcome bit and its score, if it has one, and the value index gains
    /// one bit per parameter. Nothing is cloned.
    // lint: allow(W003, reason = "the determinism assert is the documented contract: a conflicting duplicate would silently corrupt every downstream guarantee", scope = "block")
    pub fn record(&mut self, instance: impl Borrow<Instance>, eval: EvalResult) -> bool {
        let instance = instance.borrow();
        debug_assert_eq!(
            Some(instance.dense_key()),
            self.space.encode(instance).as_deref(),
            "instance carries a dense key inconsistent with this store's space"
        );
        let (fp, key) = (instance.dense_fingerprint(), instance.dense_key());
        match self.by_key.probe(fp, key) {
            Ok(r) => {
                assert_eq!(
                    self.outcome_at(r),
                    eval.outcome,
                    "non-deterministic evaluation for instance {}",
                    instance.display(&self.space)
                );
                false
            }
            Err(slot) => {
                self.insert(slot, fp, key, eval);
                true
            }
        }
    }

    /// Records a run given by its dense key, with one key-index probe, and
    /// returns whether it was recorded. Nothing is recorded, and `false`
    /// returned, when `key` is not a key of the space (the wrong length, or
    /// an index past its parameter's domain) or is already recorded, with
    /// either outcome: a bulk load that trusts its source to hold each run
    /// once (WAL recovery) reads a repeat as damage.
    pub fn record_key(&mut self, key: &[u32], eval: EvalResult) -> bool {
        if !self.space.fits(key) {
            return false;
        }
        let fp = crate::fx::hash_dense_key(key);
        match self.by_key.probe(fp, key) {
            Ok(_) => false,
            Err(slot) => {
                self.insert(slot, fp, key, eval);
                true
            }
        }
    }

    /// Appends a run absent from the log, its key's free slot found by a
    /// probe: the key column, the value index (growing the block first when
    /// the run would not fit), the outcome bit and the score.
    // lint: allow(W001, reason = "per-record single-bit insert into the value index, one bit per parameter -- not a bulk word-granularity scan", scope = "block")
    // lint: allow(W003, reason = "each key entry v is below its parameter's domain length (the space encoded it, or record_key checked it), so offsets[p] + v is a row of the block, and idx / 64 < cap once the block has grown for idx", scope = "block")
    fn insert(&mut self, slot: usize, fp: u64, key: &[u32], eval: EvalResult) {
        let idx = self.len();
        self.by_key.insert_at(slot, fp, idx as u32, key);
        if idx == 64 * self.cap {
            self.grow_rows();
        }
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        for (&off, &v) in self.offsets.iter().zip(key) {
            self.bits[(off as usize + v as usize) * self.cap + word] |= bit;
        }
        match eval.outcome {
            Outcome::Fail => self.fail_bits.insert(idx),
            Outcome::Succeed => self.succeed_bits.insert(idx),
        }
        if let Some(score) = eval.score {
            self.scores.push((idx as u32, score));
        }
    }

    /// Number of recorded runs.
    pub fn len(&self) -> usize {
        self.by_key.len
    }

    /// True if no runs are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run log, in recording order, as a view of the store's columns:
    /// instances are built only as [`Runs::iter`] reaches them.
    pub fn runs(&self) -> Runs<'_> {
        Runs { store: self }
    }

    /// Every run's dense key in one row-major arena, in run order: run
    /// `r`'s key is `key_arena()[r * len..(r + 1) * len]` for a space of
    /// `len` parameters.
    pub fn key_arena(&self) -> &[u32] {
        &self.by_key.arena
    }

    /// The failing runs, as a bitset over run indices.
    pub fn failing_runs(&self) -> &RunSet {
        &self.fail_bits
    }

    /// The succeeding runs, as a bitset over run indices.
    pub fn succeeding_runs(&self) -> &RunSet {
        &self.succeed_bits
    }

    /// Run `r`'s outcome: its bit in the failing runs. `r` must be recorded.
    fn outcome_at(&self, r: usize) -> Outcome {
        if self.fail_bits.contains(r) {
            Outcome::Fail
        } else {
            Outcome::Succeed
        }
    }

    /// Run `r`'s score, if its evaluation carried one: a binary search of
    /// the score column.
    fn score_of(&self, r: usize) -> Option<f64> {
        let at = self
            .scores
            .binary_search_by_key(&(r as u32), |&(i, _)| i)
            .ok()?;
        self.scores.get(at).map(|&(_, s)| s)
    }

    /// Run `r` as the log holds it, given its key and score.
    fn run_ref<'a>(&self, r: usize, key: &'a [u32], score: Option<f64>) -> RunRef<'a> {
        RunRef {
            key,
            eval: EvalResult {
                outcome: self.outcome_at(r),
                score,
            },
        }
    }

    /// Run `r`'s instance, built. `r` must be recorded.
    fn instance_at(&self, r: usize) -> Instance {
        self.space.instance_from_indices(self.by_key.row(r))
    }

    /// The run recorded with `instance`'s dense key, if any.
    fn find(&self, instance: &Instance) -> Option<usize> {
        debug_assert_eq!(
            Some(instance.dense_key()),
            self.space.encode(instance).as_deref(),
            "instance carries a dense key inconsistent with this store's space"
        );
        self.by_key
            .get(instance.dense_fingerprint(), instance.dense_key())
    }

    /// The recorded evaluation of an instance, if it was executed: one
    /// key-index probe over the instance's dense key, then its outcome bit
    /// and a search of the score column.
    pub fn lookup(&self, instance: &Instance) -> Option<EvalResult> {
        let r = self.find(instance)?;
        Some(EvalResult {
            outcome: self.outcome_at(r),
            score: self.score_of(r),
        })
    }

    /// The recorded outcome of an instance, if it was executed: one
    /// key-index probe and its outcome bit.
    pub fn outcome_of(&self, instance: &Instance) -> Option<Outcome> {
        self.find(instance).map(|r| self.outcome_at(r))
    }

    /// The recorded outcome of the run with dense key `key`, if there is
    /// one: [`outcome_of`](Self::outcome_of) for a key without its instance.
    pub fn outcome_of_key(&self, key: &[u32]) -> Option<Outcome> {
        self.by_key
            .get(crate::fx::hash_dense_key(key), key)
            .map(|r| self.outcome_at(r))
    }

    /// Iterates over failing instances (in recording order), building each.
    pub fn failing(&self) -> impl Iterator<Item = Instance> + '_ {
        self.fail_bits.ones().map(|r| self.instance_at(r))
    }

    /// Iterates over succeeding instances (in recording order), building
    /// each.
    pub fn succeeding(&self) -> impl Iterator<Item = Instance> + '_ {
        self.succeed_bits.ones().map(|r| self.instance_at(r))
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
    pub fn first_failing(&self) -> Option<Instance> {
        self.failing().next()
    }

    /// The succeeding runs whose keys are disjoint from `from` (Def. 6), in
    /// recording order: a scan of the succeeding runs' keys.
    fn disjoint_success_runs<'a>(&'a self, from: &'a [u32]) -> impl Iterator<Item = usize> + 'a {
        self.succeed_bits
            .ones()
            .filter(move |&r| disjoint(self.by_key.row(r), from))
    }

    /// Succeeding instances disjoint from `from` (Def. 6), in recording
    /// order. Keys are compared; only the instances yielded are built.
    pub fn disjoint_successes<'a>(
        &'a self,
        from: &'a Instance,
    ) -> impl Iterator<Item = Instance> + 'a {
        self.disjoint_success_runs(from.dense_key())
            .map(|r| self.instance_at(r))
    }

    /// Greedily selects up to `k` succeeding instances that are disjoint from
    /// `from` and mutually disjoint — the `CP_G` set of Algorithm 2. If fewer
    /// than `k` mutually disjoint successes exist, the result is shorter
    /// ("mutually disjoint if possible"). Keys are compared; only the
    /// instances picked are built.
    pub fn mutually_disjoint_successes(&self, from: &Instance, k: usize) -> Vec<Instance> {
        let mut picked: Vec<usize> = Vec::new();
        for r in self.disjoint_success_runs(from.dense_key()) {
            if picked.len() == k {
                break;
            }
            let key = self.by_key.row(r);
            if picked.iter().all(|&p| disjoint(self.by_key.row(p), key)) {
                picked.push(r);
            }
        }
        picked.into_iter().map(|r| self.instance_at(r)).collect()
    }

    /// The succeeding instance most different from `from` (maximum Hamming
    /// distance) — the heuristic fallback when the Disjointness Condition
    /// fails (paper §4.1: "take an instance that differs in as many
    /// parameter-values as possible"). Ties break to the earliest run. Keys
    /// are compared; only the instance returned is built.
    pub fn most_different_success(&self, from: &Instance) -> Option<Instance> {
        let from = from.dense_key();
        let mut best: Option<(usize, usize)> = None;
        // Recording order + strict improvement ⇒ the earliest run wins ties.
        for r in self.succeed_bits.ones() {
            let d = hamming(self.by_key.row(r), from);
            if best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, r));
            }
        }
        best.map(|(_, r)| self.instance_at(r))
    }

    /// The `(failing, succeeding)` run counts of every single-value
    /// predicate `p = v`, parameter by parameter and, within a parameter, in
    /// domain-index order: entry `Σ_{q<p} |U_q| + v` is
    /// [`support`](Self::support) of the conjunction `p = v`. Each is a
    /// popcount of the value's row and of its AND with the failing runs; no
    /// key is read.
    pub fn value_support(&self) -> Vec<(usize, usize)> {
        let words = self.len().div_ceil(64);
        let fail = self.fail_bits.words();
        (0..self.bits.len() / self.cap)
            .map(|row| {
                let row = self.row(row, words);
                let failing = kernels::and_popcount(row, fail);
                (failing, kernels::popcount(row) - failing)
            })
            .collect()
    }

    /// The Shortcut sanity check (Algorithm 1, final loop): is there a
    /// *succeeding* run whose parameter-values are a superset of the
    /// hypothetical root cause `D`? If so, `D` is not definitive. The
    /// satisfying set is tested against the succeeding runs.
    pub fn succeeding_superset_exists(&self, cause: &CanonicalCause) -> bool {
        if cause.is_top(&self.space) {
            return !self.succeed_bits.is_empty();
        }
        self.matching_runs(cause)
            .is_some_and(|acc| kernels::and_any(&acc, self.succeed_bits.words()))
    }

    /// Counts `(failing, succeeding)` runs satisfying a cause — fused
    /// AND+popcount of the satisfying set against the outcome bitsets.
    pub fn support(&self, cause: &CanonicalCause) -> (usize, usize) {
        if cause.is_top(&self.space) {
            return (self.num_failing(), self.num_succeeding());
        }
        match self.matching_runs(cause) {
            Some(acc) => (
                kernels::and_popcount(&acc, self.fail_bits.words()),
                kernels::and_popcount(&acc, self.succeed_bits.words()),
            ),
            None => (0, 0),
        }
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
            // The indices are domain positions, so the key fits and only a
            // repeated row is refused. One with the same evaluation is
            // skipped; one with the other evaluation contradicts the file.
            if store.record_key(&indices, EvalResult { outcome, score }) {
                continue;
            }
            if let Some(earlier) = store.outcome_of_key(&indices).filter(|&e| e != outcome) {
                return Err(TsvError::Conflict {
                    line: line_no + 1,
                    instance: space
                        .instance_from_indices(&indices)
                        .display(&space)
                        .to_string(),
                    earlier,
                    found: outcome,
                });
            }
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
        for run in self.runs().refs() {
            for (i, (p, &v)) in self.space.ids().zip(run.key).enumerate() {
                if i > 0 {
                    out.push('\t');
                }
                escape_tsv_into(&self.space.domain(p).value(v as usize).to_string(), &mut out);
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

/// True if two keys of one space differ at every parameter (Def. 6).
fn disjoint(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x != y)
}

/// Number of parameters at which two keys of one space differ.
fn hamming(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Names kept only for the end-to-end benchmark (`e2ebench/`), which
/// compiles against them and is their only caller. ROADMAP direction 2's
/// benchmark step drops its calls and then deletes this block.
///
/// The benchmark also compiles against the run log's earlier shape, and
/// these keep it working: [`reserve`](Self::reserve) (below, its only
/// caller is the benchmark's set-up), [`record`](Self::record) taking an
/// owned instance (through `impl Borrow<Instance>`),
/// [`Runs::last`] handing [`RunRef`] to `DurableStore::append` without
/// building an instance, and [`Runs::iter`] yielding [`Run`] values whose
/// `instance` field and `outcome()` it reads. A benchmark change that reads
/// keys ([`Runs::refs`]) can then drop `reserve`.
impl ProvenanceStore {
    /// Pre-sizes the dense-key index for `additional` further
    /// [`record`](Self::record) calls. Purely an optimization for bulk loads
    /// of a known size: the key table jumps straight to the size those
    /// records would grow it to, instead of re-placing every slot once per
    /// doubling, and the key arena allocates once.
    pub fn reserve(&mut self, additional: usize) {
        self.by_key.reserve(additional);
    }

    /// [`support`](Self::support) of the conjunction's canonical form:
    /// exact counts are admissible bounds.
    pub fn support_bounds(&self, cause: &Conjunction) -> (usize, usize) {
        self.support(&cause.canonicalize(&self.space))
    }

    /// [`succeeding_superset_exists`](Self::succeeding_superset_exists) of
    /// the conjunction's canonical form: the same scan.
    pub fn succeeding_superset_exists_exact(&self, cause: &Conjunction) -> bool {
        self.succeeding_superset_exists(&cause.canonicalize(&self.space))
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
        assert_eq!(p.first_failing().unwrap(), inst(&s, "Iris", "GB", 2));
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
        assert_eq!(disjoint, vec![inst(&s, "Digits", "DT", 1)]);
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
            inst(&s, "Iris", "DT", 1)
        );
        // Tie at distance 2 breaks to the earliest run.
        p.record(inst(&s, "Iris", "LR", 1), Outcome::Succeed.into()); // distance 2
        assert_eq!(
            p.most_different_success(&cpf).unwrap(),
            inst(&s, "Iris", "DT", 1)
        );
    }

    #[test]
    fn succeeding_superset_check() {
        let s = space();
        let p = table1(&s);
        let version = s.by_name("Version").unwrap();
        // D = {Version = 1}: (Iris,LR,1) succeeded and contains it.
        let d1 = Conjunction::new(vec![Predicate::eq(version, 1)]);
        assert!(p.succeeding_superset_exists(&d1.canonicalize(&s)));
        // D = {Version = 2}: the only run with version 2 failed.
        let d2 = Conjunction::new(vec![Predicate::eq(version, 2)]);
        assert!(!p.succeeding_superset_exists(&d2.canonicalize(&s)));
    }

    #[test]
    fn support_counts() {
        let s = space();
        let p = table1(&s);
        let ds = s.by_name("Dataset").unwrap();
        let c = Conjunction::new(vec![Predicate::eq(ds, Value::from("Iris"))]);
        assert_eq!(p.support(&c.canonicalize(&s)), (1, 1));
        assert_eq!(p.support(&CanonicalCause::top(&s)), (1, 2));
    }

    /// A 300-run log, which crosses the value index's capacity doublings at
    /// 64, 128 and 256 runs: x = 3 fails.
    fn log_300() -> (Arc<ParamSpace>, ProvenanceStore) {
        let s = ParamSpace::builder()
            .ordinal("x", (0..16).collect::<Vec<_>>())
            .ordinal("y", (0..8).collect::<Vec<_>>())
            .categorical("z", ["a", "b", "c", "d"])
            .build();
        let x = s.by_name("x").unwrap();
        let mut p = ProvenanceStore::new(s.clone());
        for inst in s.instances().take(300) {
            let outcome = Outcome::from_check(inst.get(x) != &Value::from(3));
            p.record(inst, EvalResult::of(outcome));
        }
        (s, p)
    }

    /// `support` and `succeeding_superset_exists` of each conjunction's
    /// canonical form against per-run interpretation of the conjunction on
    /// a 300-run log, which crosses the value index's capacity doublings at
    /// 64, 128 and 256 runs. The causes include an unsatisfiable one and
    /// predicates that allow a whole domain.
    #[test]
    fn queries_match_per_run_interpretation() {
        let (s, p) = log_300();
        let x = s.by_name("x").unwrap();
        let y = s.by_name("y").unwrap();
        let z = s.by_name("z").unwrap();
        let whole_y = Predicate::new(y, crate::Comparator::Le, 7i64);
        let causes = (0..16)
            .map(|v| {
                let mut preds = vec![Predicate::eq(x, v as i64)];
                if v % 3 == 0 {
                    preds.push(Predicate::new(y, crate::Comparator::Gt, (v % 8) as i64));
                }
                if v % 4 == 1 {
                    preds.push(Predicate::new(z, crate::Comparator::Neq, "b"));
                }
                Conjunction::new(preds)
            })
            .chain([
                Conjunction::new(vec![Predicate::new(x, crate::Comparator::Le, 3i64)]),
                Conjunction::top(),
                Conjunction::new(vec![
                    Predicate::new(x, crate::Comparator::Le, 2i64),
                    Predicate::new(x, crate::Comparator::Gt, 5i64),
                ]),
                Conjunction::new(vec![whole_y.clone()]),
                Conjunction::new(vec![whole_y, Predicate::eq(z, "c")]),
            ]);
        for cause in causes {
            let matching = || p.runs().iter().filter(|r| cause.satisfied_by(&r.instance));
            let failing = matching().filter(|r| r.outcome().is_fail()).count();
            let succeeding = matching().filter(|r| r.outcome().is_succeed()).count();
            let shown = cause.display(&s).to_string();
            let canon = cause.canonicalize(&s);
            assert_eq!(p.support(&canon), (failing, succeeding), "{shown}");
            assert_eq!(
                p.succeeding_superset_exists(&canon),
                succeeding > 0,
                "{shown}"
            );
        }
    }

    /// Every `(failing, succeeding)` pair of `value_support` against
    /// per-run interpretation of `p = v` on the 300-run log.
    #[test]
    fn value_support_matches_per_run_interpretation() {
        let (s, p) = log_300();
        let runs = p.runs().to_vec();
        let mut expected = Vec::new();
        for (id, def) in s.iter() {
            for v in def.domain().values() {
                let pred = Predicate::eq(id, v.clone());
                let matching = || runs.iter().filter(|r| pred.satisfied_by(&r.instance));
                expected.push((
                    matching().filter(|r| r.outcome().is_fail()).count(),
                    matching().filter(|r| r.outcome().is_succeed()).count(),
                ));
            }
        }
        assert_eq!(p.value_support(), expected);
        assert_eq!(
            ProvenanceStore::new(s).value_support(),
            vec![(0, 0); expected.len()]
        );
    }

    /// The columns give back what was recorded: every instance, outcome and
    /// score, in order, through `runs()` and each of its views.
    #[test]
    fn runs_give_back_every_instance_outcome_and_score_in_order() {
        let s = space();
        let given: Vec<Run> = s
            .instances()
            .enumerate()
            .map(|(k, instance)| Run {
                instance,
                eval: match k % 3 {
                    0 => EvalResult::of(Outcome::Fail),
                    1 => EvalResult::from_score_at_least(k as f64 / 10.0, 0.9),
                    _ => EvalResult::of(Outcome::Succeed),
                },
            })
            .collect();
        let p = ProvenanceStore::with_runs(s.clone(), given.clone());
        assert_eq!(p.runs().len(), given.len());
        assert_eq!(p.runs().to_vec(), given);
        for (k, (got, want)) in p.runs().refs().zip(&given).enumerate() {
            assert_eq!(got, RunRef::from(want));
            assert_eq!(p.runs().get(k), Some(got));
            assert_eq!(got.to_run(&s), *want);
        }
        assert_eq!(p.runs().last(), given.last().map(RunRef::from));
        assert_eq!(p.runs().get(given.len()), None);
        assert_eq!(p.runs().refs().size_hint(), (given.len(), Some(given.len())));
        // The last run carries no score; the one before it does.
        let scored = ProvenanceStore::with_runs(s.clone(), given[..given.len() - 1].to_vec());
        assert_eq!(scored.runs().last(), given.get(given.len() - 2).map(RunRef::from));
        assert_eq!(ProvenanceStore::new(s).runs().last(), None);
    }

    /// `lookup` returns the stored score and outcome, and a log with and
    /// without scores round-trips through TSV byte for byte.
    #[test]
    fn lookup_returns_the_score_and_tsv_round_trips_byte_for_byte() {
        let s = space();
        let mut p = table1(&s);
        p.record(inst(&s, "Images", "GB", 1), Outcome::Fail.into());
        p.record(
            inst(&s, "Images", "DT", 2),
            EvalResult::from_score_at_least(0.125, 0.6),
        );
        for run in p.runs() {
            assert_eq!(p.lookup(&run.instance), Some(run.eval));
            assert_eq!(p.outcome_of(&run.instance), Some(run.outcome()));
            assert_eq!(p.outcome_of_key(run.instance.dense_key()), Some(run.outcome()));
        }
        assert_eq!(
            p.lookup(&inst(&s, "Iris", "DT", 2)),
            None,
            "never recorded"
        );
        assert_eq!(
            p.lookup(&inst(&s, "Images", "DT", 2)).unwrap().score,
            Some(0.125)
        );
        let tsv = p.to_tsv();
        let parsed = ProvenanceStore::from_tsv(s.clone(), &tsv).unwrap();
        assert_eq!(parsed.to_tsv(), tsv);
        assert_eq!(parsed.runs(), p.runs());
    }

    /// `record_key` records one probe's worth: a new key once, and never a
    /// repeat (either outcome) or a key outside the space.
    #[test]
    fn record_key_refuses_repeats_and_misfits() {
        let s = space();
        let mut p = ProvenanceStore::new(s.clone());
        assert!(p.record_key(&[0, 1, 1], Outcome::Fail.into()));
        assert!(!p.record_key(&[0, 1, 1], Outcome::Fail.into()));
        assert!(!p.record_key(&[0, 1, 1], Outcome::Succeed.into()));
        assert!(!p.record_key(&[0, 3, 1], Outcome::Fail.into()), "index past the domain");
        assert!(!p.record_key(&[0, 1], Outcome::Fail.into()), "too short");
        assert_eq!(p.len(), 1);
        assert_eq!(p.first_failing().unwrap(), inst(&s, "Iris", "DT", 2));
    }

    /// `reserve(n)` sizes the key table for exactly the `n` records that
    /// follow: none of them regrows it, nor the key arena, and a table
    /// built by growth alone reaches the same size. `reserve(0)` changes
    /// nothing.
    #[test]
    fn reserve_fits_exactly_the_records_that_follow() {
        let s = ParamSpace::builder()
            .ordinal("x", (0..64).collect::<Vec<_>>())
            .ordinal("y", (0..64).collect::<Vec<_>>())
            .build();
        for n in [1, 7, 8, 9, 100, 2048, 4096] {
            let mut grown = ProvenanceStore::new(s.clone());
            let mut reserved = ProvenanceStore::new(s.clone());
            reserved.reserve(0);
            assert_eq!(reserved.by_key.slots.len(), grown.by_key.slots.len());
            assert_eq!(reserved.by_key.arena.capacity(), 0);
            reserved.reserve(n);
            let (slots, arena) = (reserved.by_key.slots.len(), reserved.by_key.arena.capacity());
            for inst in s.instances().take(n) {
                grown.record(&inst, Outcome::Succeed.into());
                reserved.record(&inst, Outcome::Succeed.into());
            }
            assert_eq!(reserved.by_key.slots.len(), slots, "n = {n}: regrown");
            assert_eq!(reserved.by_key.arena.capacity(), arena, "n = {n}: arena regrown");
            assert!(
                reserved.by_key.slots.len() <= grown.by_key.slots.len(),
                "n = {n}: reserved {} slots, growth reached {}",
                reserved.by_key.slots.len(),
                grown.by_key.slots.len()
            );
            reserved.reserve(0);
            assert_eq!(reserved.by_key.slots.len(), slots);
        }
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
