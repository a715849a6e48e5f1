//! A full (unpruned) binary decision tree over pipeline instances.
//!
//! "An inner node of the decision tree is a triple (Parameter, Comparator,
//! Value)" (paper §4.2). BugDoc "build[s] a complete decision tree, i.e.,
//! with no pruning", because the tree is not a predictor: it is a device for
//! discovering short paths to pure-`fail` leaves — the *suspects*.
//!
//! The same learner, with a depth cap and per-node feature sampling, serves
//! as the base learner of the random-forest surrogate used by the SMAC
//! baseline (see [`crate::forest`]).
//!
//! # Split search
//!
//! A fit lays its rows out as one row-major code matrix: one `u32` code per
//! parameter, row `i` at `i * len..(i + 1) * len` for a space of `len`
//! parameters. A row's code for a parameter is its value's domain index, so
//! the matrix is the rows' dense keys ([`Instance::dense_key`]) one after
//! another — the layout of the provenance store's key arena
//! ([`ProvenanceStore::key_arena`]). [`DecisionTree::fit`] copies each row's
//! key into the matrix, and [`DecisionTree::fit_provenance`] borrows the
//! arena as it is.
//!
//! An ordinal parameter also ranks its codes in `≤` order. `Ord`-equal
//! domain values share a rank (`Domain::ordinal` dedups by `Eq`, so it keeps
//! both `Int(2)` and `Float(2.0)`, and `≤` cannot tell them apart). A row
//! satisfies `≤ v` exactly when its code ranks no higher than `v`.
//!
//! `grow` partitions one vector of `u32` row ids in place. Each id is
//! written both behind the rows passing the test and into a spill buffer
//! behind the rows failing it, and the test's bit advances one of the two
//! ends, so the loop has no branch on the test (at a deep-history root it is
//! a coin flip); the spill is then copied back behind the passing rows.
//!
//! A node that splits holds a histogram over every parameter: the
//! (n, Σy, Σy²) of its rows in one bucket per (parameter, code), filled in
//! one pass over its rows. The root of a
//! [`fit_provenance`](DecisionTree::fit_provenance) is the exception: its
//! histogram is read off the store's value index instead
//! ([`ProvenanceStore::value_support`]). Bucket `(p, v)` of the root holds
//! every run with `p = v`, so with fail = 1 / succeed = 0 labels it is
//! `n = f + s` and `Σy = Σy² = f` for that predicate's `(f, s)` support —
//! the integers a scan would sum, popcounted from the bitsets without
//! reading a key.
//! `best_split` reads the buckets of the sampled candidates only. A
//! categorical `= v` test reads bucket `v`; an ordinal `≤ v` test reads a
//! prefix sum over ranks. A node of n rows over P parameters of at most V
//! codes costs O(P·(n + V)), where evaluating every test on every row costs
//! P·V·n value comparisons.
//!
//! After a split only the smaller child's rows are scanned: the larger
//! child's histogram is the parent's minus the smaller's, bucket by bucket.
//! This is done only when a child may split (enough rows, under the depth
//! cap, a nonzero SSE). A child handed no histogram scans its own rows when
//! it splits, so a wrong guess costs time, never correctness.
//!
//! Tests are visited in (candidate, domain index) order, scored by SSE
//! reduction, and compared with a 1e-12 tolerance and a (parameter, value)
//! tie-break. With integer labels, such as the fail = 1 / succeed = 0 labels
//! DDT and the forest use, every bucket sum, and every difference of two
//! sums, is an integer that `f64` holds exactly. So a histogram got by
//! subtraction, or from popcounts, equals one got by scanning, bucket sums
//! equal row-by-row sums in any order, a child's statistics read off its
//! parent's split equal its rows' sums, and the search picks the split that
//! evaluating each test row by row would.
//!
//! # Refits
//!
//! DDT fits its tree once per diagnosis and refits it after the store
//! grows, in the manner of incremental tree induction (Utgoff, Berkman and
//! Clouse, "Decision Tree Induction Based on Efficient Tree Restructuring",
//! *Machine Learning* 29, 1997). A [`ProvenanceTree`] keeps, beside the
//! tree, every node's label statistics, every split node's histogram and
//! test by domain index, the labels, and the row ids laid out so that every
//! node's rows are one contiguous slice. (A plain [`DecisionTree::fit`], and
//! with it the forest, hands each histogram on to the children instead.)
//! Its first fit is [`DecisionTree::fit_provenance`]'s.
//!
//! A refit walks the tree top-down with the runs recorded since the last
//! fit. At a split node it adds them to the histogram and statistics and
//! runs the split search again; when the search picks the same (parameter,
//! value), it routes them to the children by the rank test `grow`
//! partitions with. A leaf adds them to its statistics and stays a leaf
//! when `grow` would stop there before searching (too few rows, pure, at the
//! depth cap). A split whose test changed, and a leaf that may split now,
//! are regrown by `grow` over their old and new rows; a regrown split node
//! starts from its updated histogram. A subtree no new run reaches is left
//! as it is. The row ids are laid out anew on the way, in a new buffer.
//!
//! The refit grows the tree a fit over the whole store grows, node for node.
//! A subtree depends only on its rows, its depth and the config. Where no
//! new run arrives, the rows are the same. Where new runs arrive, the
//! updated histogram holds the old rows' sums plus the new rows', and with
//! 0/1 labels every bucket sum is an exact integer in `f64`, so it equals
//! the histogram a fit scans. The search over it then picks the fit's test,
//! and a kept test sends each row where the fit sends it. A leaf's purity is
//! read off its statistics: its labels sum to 0 or to its count. Debug
//! builds compare every refit with a fresh fit.
//!
//! For P parameters of at most V codes, a refit costs O(depth · P) per new
//! run for the walk and the histogram updates, one O(P·V) split search per
//! kept split node that new runs reach, and one copy of the row ids. A
//! regrow costs what fitting the regrown node's rows costs: one histogram
//! scan of them (none at a split node, which has its histogram), then the
//! fit below. A succeeding run inside a pure-fail leaf regrows that leaf
//! over its rows; a changed root test regrows the whole tree.

use bugdoc_core::{
    Comparator, Conjunction, Domain, Instance, ParamId, ParamSpace, Predicate, ProvenanceStore,
};
use std::borrow::Borrow;
use std::fmt::Write as _;

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth (`None` = grow until pure — the DDT setting).
    pub max_depth: Option<usize>,
    /// Minimum rows required to attempt a split.
    pub min_samples_split: usize,
    /// If set, the number of parameters sampled (without replacement) as
    /// split candidates at each node — the random-forest setting. `None`
    /// considers every parameter (deterministic, the DDT setting).
    pub feature_subset: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: None,
            min_samples_split: 2,
            feature_subset: None,
        }
    }
}

/// Summary of the labels reaching a leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafInfo {
    /// Number of training rows at the leaf.
    pub n: usize,
    /// Mean label. With fail=1/succeed=0 labels this is the failure rate.
    pub mean: f64,
    /// True if all labels at the leaf are identical — a *pure* leaf.
    pub pure: bool,
}

impl LeafInfo {
    /// True if this is a pure-`fail` leaf (all labels 1) — a DDT suspect.
    pub fn is_pure_fail(&self) -> bool {
        self.pure && self.n > 0 && self.mean > 0.5
    }
}

/// A tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// A terminal node.
    Leaf(LeafInfo),
    /// An internal test: instances satisfying `pred` descend into `yes`,
    /// the rest into `no` (where the negated predicate holds).
    Inner {
        /// The (Parameter, Comparator, Value) test.
        pred: Predicate,
        /// Subtree where the test holds.
        yes: Box<Node>,
        /// Subtree where the negated test holds.
        no: Box<Node>,
    },
}

/// A root-to-leaf path: the conjunction of edge predicates plus the leaf
/// summary. Paths to pure-fail leaves are DDT's suspects.
#[derive(Debug, Clone)]
pub struct Path {
    /// The conjunction of predicates along the path (edge-ordered).
    pub conjunction: Conjunction,
    /// The leaf at the end of the path.
    pub leaf: LeafInfo,
}

/// A trained decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
}

/// Source of per-node feature subsets (only used by random forests).
pub trait FeatureSampler {
    /// Chooses the parameters to consider at one node.
    fn sample(&mut self, all: &[ParamId], k: usize) -> Vec<ParamId>;
}

/// Considers all features — the deterministic single-tree setting.
pub struct AllFeatures;

impl FeatureSampler for AllFeatures {
    fn sample(&mut self, all: &[ParamId], _k: usize) -> Vec<ParamId> {
        all.to_vec()
    }
}

impl DecisionTree {
    /// Fits a tree on `(instance, label)` rows; the instances may be owned
    /// or borrowed (`&Instance`, e.g. straight from a provenance store).
    /// They must be instances of `space`: a row's dense key is taken as its
    /// encoding. Labels are real-valued; the split criterion is
    /// sum-of-squared-error reduction, which for binary fail=1/succeed=0
    /// labels coincides (up to a constant) with Gini impurity, so one
    /// criterion serves classification and regression.
    pub fn fit<I: Borrow<Instance>>(
        space: &ParamSpace,
        rows: &[(I, f64)],
        config: &TreeConfig,
    ) -> Self {
        Self::fit_with_sampler(space, rows, config, &mut AllFeatures)
    }

    /// Fits a tree with an explicit feature sampler (used by random forests).
    pub fn fit_with_sampler<I: Borrow<Instance>>(
        space: &ParamSpace,
        rows: &[(I, f64)],
        config: &TreeConfig,
        sampler: &mut dyn FeatureSampler,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree on zero rows");
        assert!(rows.len() < u32::MAX as usize, "row ids are u32");
        let mut codes = Vec::with_capacity(rows.len() * space.len());
        for (instance, _) in rows {
            let instance = instance.borrow();
            let key = instance.dense_key();
            debug_assert!(
                key.len() == space.len()
                    && space
                        .ids()
                        .zip(key)
                        .all(|(p, &k)| space.domain(p).value(k as usize) == instance.get(p))
            );
            codes.extend_from_slice(key);
        }
        let labels: Vec<f64> = rows.iter().map(|(_, y)| *y).collect();
        let mut ids: Vec<u32> = (0..rows.len() as u32).collect();
        let node = Stats::of(&labels, &ids);
        let mut grower = Grower::new(space, config, sampler, &codes, &labels, false);
        let (root, _) = grower.grow(&mut ids, 0, node, None);
        DecisionTree { root }
    }

    /// Fits a tree over every run of a provenance store, labelled fail = 1 /
    /// succeed = 0: the first fit of a [`ProvenanceTree`], whose tree it
    /// returns. The tree equals [`fit`](Self::fit) over
    /// [`runs`](ProvenanceStore::runs) with those labels.
    pub fn fit_provenance(prov: &ProvenanceStore, config: &TreeConfig) -> Self {
        ProvenanceTree::fit(prov, config).tree
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Predicted mean label for an instance (failure probability with binary
    /// labels).
    pub fn predict(&self, instance: &Instance) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(info) => return info.mean,
                Node::Inner { pred, yes, no } => {
                    node = if pred.satisfied_by(instance) { yes } else { no };
                }
            }
        }
    }

    /// All root-to-leaf paths, in left-to-right (yes-first) order.
    pub fn paths(&self) -> Vec<Path> {
        let mut out = Vec::new();
        collect_paths(&self.root, &mut Vec::new(), &mut out);
        out
    }

    /// Paths ending in pure-`fail` leaves — the DDT suspects — sorted by
    /// ascending conjunction length (short suspects first, since DDT looks
    /// for *minimal* causes), ties broken by tree order.
    pub fn fail_paths(&self) -> Vec<Path> {
        let mut fails: Vec<Path> = self
            .paths()
            .into_iter()
            .filter(|p| p.leaf.is_pure_fail())
            .collect();
        fails.sort_by_key(|p| p.conjunction.len());
        fails
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Inner { yes, no, .. } => count(yes) + count(no),
            }
        }
        count(&self.root)
    }

    /// Maximum depth (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 0,
                Node::Inner { yes, no, .. } => 1 + depth(yes).max(depth(no)),
            }
        }
        depth(&self.root)
    }

    /// ASCII rendering for debugging and reports.
    pub fn render(&self, space: &ParamSpace) -> String {
        let mut out = String::new();
        fn walk(node: &Node, space: &ParamSpace, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match node {
                Node::Leaf(info) => {
                    let _ = writeln!(
                        out,
                        "{pad}leaf n={} mean={:.2}{}",
                        info.n,
                        info.mean,
                        if info.pure { " (pure)" } else { "" }
                    );
                }
                Node::Inner { pred, yes, no } => {
                    let _ = writeln!(out, "{pad}if {}:", pred.display(space));
                    walk(yes, space, indent + 1, out);
                    let _ = writeln!(out, "{pad}else:");
                    walk(no, space, indent + 1, out);
                }
            }
        }
        walk(&self.root, space, 0, &mut out);
        out
    }
}

/// A decision tree over a provenance store's runs, labelled fail = 1 /
/// succeed = 0, that [`refit`](Self::refit) brings up to date with the runs
/// recorded since its last fit instead of fitting the whole log again (see
/// "Refits" in the module docs). Every node considers every parameter.
#[derive(Clone)]
pub struct ProvenanceTree {
    tree: DecisionTree,
    /// The statistics, tests and histograms behind `tree`'s nodes.
    kept: Kept,
    config: TreeConfig,
    /// Run id → label, for every fitted run.
    labels: Vec<f64>,
    /// The fitted run ids, every node's rows one contiguous slice, in tree
    /// order (a split's yes rows before its no rows).
    ids: Vec<u32>,
}

impl ProvenanceTree {
    /// Fits a tree over every run of `prov`. The store's key arena is the
    /// code matrix (see the module docs), borrowed as it is, and the labels
    /// come from its failing-runs bitset, so no run's instance is built. The
    /// root's statistics and histogram come from the store's outcome counts
    /// and per-value support, so no key is read until the root's children
    /// are split.
    pub fn fit(prov: &ProvenanceStore, config: &TreeConfig) -> Self {
        assert!(!prov.is_empty(), "cannot fit a tree on zero rows");
        let mut labels = vec![0.0; prov.len()];
        for r in prov.failing_runs().ones() {
            labels[r] = 1.0;
        }
        // A 0/1 label's square is itself, so Σy² = Σy = the failing count.
        let failing = prov.num_failing() as f64;
        let node = Stats {
            n: prov.len(),
            sum: failing,
            sum_sq: failing,
        };
        let root = prov
            .value_support()
            .into_iter()
            .map(|(f, s)| Stats {
                n: f + s,
                sum: f as f64,
                sum_sq: f as f64,
            })
            .collect();
        let mut ids: Vec<u32> = (0..prov.len() as u32).collect();
        let sampler = &mut AllFeatures;
        let mut grower = Grower::new(
            prov.space(),
            config,
            sampler,
            prov.key_arena(),
            &labels,
            true,
        );
        let (root, kept) = grower.grow(&mut ids, 0, node, Some(root));
        ProvenanceTree {
            tree: DecisionTree { root },
            kept,
            config: config.clone(),
            labels,
            ids,
        }
    }

    /// Brings the tree up to date with the runs `prov` recorded since the
    /// last fit: it becomes the tree [`fit`](Self::fit) grows over all of
    /// `prov`. `prov` must be the store this tree was fitted on, grown
    /// since; a store only appends, so the fitted runs are its first ones.
    pub fn refit(&mut self, prov: &ProvenanceStore) {
        let (fitted, len) = (self.labels.len(), prov.len());
        debug_assert!(
            fitted <= len,
            "refit on a store shorter than the fitted log"
        );
        if fitted >= len {
            return;
        }
        let failing = prov.failing_runs();
        self.labels
            .extend((fitted..len).map(|r| if failing.contains(r) { 1.0 } else { 0.0 }));
        let mut fresh: Vec<u32> = (fitted as u32..len as u32).collect();
        let mut out = Vec::with_capacity(len);
        let sampler = &mut AllFeatures;
        let mut grower = Grower::new(
            prov.space(),
            &self.config,
            sampler,
            prov.key_arena(),
            &self.labels,
            true,
        );
        grower.refit(
            &mut self.tree.root,
            &mut self.kept,
            &self.ids,
            &mut fresh,
            &mut out,
            0,
        );
        self.ids = out;
        debug_assert_eq!(
            format!("{:?}", self.tree.root),
            format!("{:?}", Self::fit(prov, &self.config).tree.root),
            "a refit grew another tree than a fit over the whole store"
        );
    }

    /// The tree as of the last fit.
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }
}

fn collect_paths(node: &Node, prefix: &mut Vec<Predicate>, out: &mut Vec<Path>) {
    match node {
        Node::Leaf(info) => out.push(Path {
            conjunction: Conjunction::new(prefix.clone()),
            leaf: *info,
        }),
        Node::Inner { pred, yes, no } => {
            prefix.push(pred.clone());
            collect_paths(yes, prefix, out);
            prefix.pop();
            prefix.push(pred.negated());
            collect_paths(no, prefix, out);
            prefix.pop();
        }
    }
}

/// Label statistics of a set of rows.
#[derive(Clone, Copy, Default)]
struct Stats {
    n: usize,
    sum: f64,
    sum_sq: f64,
}

impl Stats {
    fn of(labels: &[f64], ids: &[u32]) -> Self {
        let mut s = Stats::default();
        for &i in ids {
            s.push(labels[i as usize]);
        }
        s
    }

    fn push(&mut self, y: f64) {
        self.n += 1;
        self.sum += y;
        self.sum_sq += y * y;
    }

    fn add(&mut self, other: &Stats) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// The statistics of `self`'s rows outside `part` (a subset of them).
    fn minus(&self, part: &Stats) -> Stats {
        Stats {
            n: self.n - part.n,
            sum: self.sum - part.sum,
            sum_sq: self.sum_sq - part.sum_sq,
        }
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Sum of squared errors around the mean — the impurity.
    fn sse(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sum_sq - self.sum * self.sum / self.n as f64).max(0.0)
        }
    }
}

fn is_pure(labels: &[f64], ids: &[u32]) -> bool {
    let first = labels[ids[0] as usize];
    ids.iter().all(|&i| (labels[i as usize] - first).abs() < 1e-12)
}

/// One parameter's codes — its domain indices — and the parameter's place
/// in a node histogram.
struct ParamCodes {
    /// The parameter's number of codes: its domain's size.
    n_values: usize,
    /// Ordinal parameters: the `≤` rank of every domain index, equal for
    /// `Ord`-equal values. `None` for categorical parameters.
    rank: Option<Vec<u32>>,
    /// The bucket of code 0 in a node histogram; the parameter's buckets
    /// follow it, one per code.
    base: usize,
}

impl ParamCodes {
    fn new(domain: &Domain, base: usize) -> Self {
        let rank = domain.is_ordinal().then(|| {
            let values = domain.values();
            let mut class = 0u32;
            (0..values.len())
                .map(|i| {
                    if i > 0 && values[i - 1] < values[i] {
                        class += 1;
                    }
                    class
                })
                .collect()
        });
        ParamCodes {
            n_values: domain.len(),
            rank,
            base,
        }
    }

    /// Whether a row coded `code` satisfies the test built from domain
    /// index `v` (`= v` categorical, `≤ v` ordinal).
    fn holds(&self, code: usize, v: usize) -> bool {
        match &self.rank {
            Some(rank) => rank[code] <= rank[v],
            None => code == v,
        }
    }

    fn comparator(&self) -> Comparator {
        match self.rank {
            Some(_) => Comparator::Le,
            None => Comparator::Eq,
        }
    }
}

/// Every parameter's codes, laid out one after another in a histogram.
fn param_codes(space: &ParamSpace) -> Vec<ParamCodes> {
    let mut base = 0;
    space
        .ids()
        .map(|p| {
            let codes = ParamCodes::new(space.domain(p), base);
            base += codes.n_values;
            codes
        })
        .collect()
}

/// The best test found so far at a node: `param` compared against its
/// domain value `value`, and the statistics of the rows passing it.
struct Split {
    gain: f64,
    param: ParamId,
    value: usize,
    yes: Stats,
}

/// A node histogram: one bucket of label sums per (parameter, code), each
/// parameter's buckets starting at its [`ParamCodes::base`].
type Histogram = Vec<Stats>;

/// What a [`ProvenanceTree`] keeps of one node beside its [`Node`]: the
/// label statistics of the node's rows and, at a split node, the split's
/// test by index, the rows' histogram and the children's.
#[derive(Clone)]
struct Kept {
    stats: Stats,
    split: Option<Box<KeptSplit>>,
}

#[derive(Clone)]
struct KeptSplit {
    param: ParamId,
    value: usize,
    hist: Histogram,
    yes: Kept,
    no: Kept,
}

/// The state of one fit: the encoded rows and buffers reused across nodes.
struct Grower<'a> {
    space: &'a ParamSpace,
    config: &'a TreeConfig,
    sampler: &'a mut dyn FeatureSampler,
    all_params: Vec<ParamId>,
    params: Vec<ParamCodes>,
    /// The row-major code matrix: row `i`'s codes at
    /// `i * params.len()..`, one per parameter.
    codes: &'a [u32],
    /// Row id → label.
    labels: &'a [f64],
    /// Buckets per histogram: every parameter's domain size, summed.
    n_buckets: usize,
    /// Whether split nodes keep their histograms (a [`ProvenanceTree`]'s
    /// fits) instead of handing them on to their children.
    keep: bool,
    /// Histogram buffers no node holds, reused by the next scan.
    free: Vec<Histogram>,
    /// Per-rank prefix sums of an ordinal parameter.
    ranked: Vec<Stats>,
    /// The rows failing a split, copied back behind the ones passing it:
    /// one slot per row of the largest node partitioned so far.
    spill: Vec<u32>,
}

impl<'a> Grower<'a> {
    fn new(
        space: &'a ParamSpace,
        config: &'a TreeConfig,
        sampler: &'a mut dyn FeatureSampler,
        codes: &'a [u32],
        labels: &'a [f64],
        keep: bool,
    ) -> Self {
        debug_assert_eq!(codes.len(), labels.len() * space.len());
        let params = param_codes(space);
        Grower {
            space,
            config,
            sampler,
            all_params: space.ids().collect(),
            n_buckets: params.iter().map(|codes| codes.n_values).sum(),
            params,
            codes,
            labels,
            keep,
            free: Vec::new(),
            ranked: Vec::new(),
            spill: Vec::new(),
        }
    }

    /// Grows the subtree over `ids`, whose label statistics are `node`.
    /// `hist`, when given, is their histogram. Returns the subtree and what
    /// a [`ProvenanceTree`] keeps of it (its split nodes' histograms only
    /// when `keep` is set).
    fn grow(
        &mut self,
        ids: &mut [u32],
        depth: usize,
        node: Stats,
        hist: Option<Histogram>,
    ) -> (Node, Kept) {
        debug_assert_eq!(node.n, ids.len());
        debug_assert!(hist.as_ref().is_none_or(|h| h.len() == self.n_buckets));
        let pure = is_pure(self.labels, ids);
        let leaf = (
            Node::Leaf(LeafInfo {
                n: node.n,
                mean: node.mean(),
                pure,
            }),
            Kept {
                stats: node,
                split: None,
            },
        );
        if self.stops(ids.len(), pure, depth) {
            self.free.extend(hist);
            return leaf;
        }

        let candidates = self.candidates();
        let hist = hist.unwrap_or_else(|| self.histogram(ids));
        // The node is impure, so any split is taken, even a zero-gain one: a
        // full tree must separate distinguishable rows (e.g. XOR patterns).
        let Some(split) = self.best_split(&hist, &candidates, &node) else {
            self.free.push(hist);
            return leaf;
        };
        let n_yes = self.partition(ids, split.param, split.value);
        debug_assert!(n_yes > 0 && n_yes < ids.len());
        let codes = &self.params[split.param.index()];
        let pred = Predicate::new(
            split.param,
            codes.comparator(),
            self.space.domain(split.param).value(split.value).clone(),
        );
        let (yes, no) = ids.split_at_mut(n_yes);
        let (yes_node, no_node) = (split.yes, node.minus(&split.yes));
        let children = self.may_split(&yes_node, depth + 1) || self.may_split(&no_node, depth + 1);
        // A kept histogram stays with its node, so the children's are
        // derived from a copy.
        let (parent, kept) = match (children, self.keep) {
            (true, true) => (Some(hist.clone()), Some(hist)),
            (true, false) => (Some(hist), None),
            (false, true) => (None, Some(hist)),
            (false, false) => {
                self.free.push(hist);
                (None, None)
            }
        };
        let (yes_hist, no_hist) = match parent {
            Some(parent) => {
                let (y, n) = self.child_histograms(parent, yes, no);
                (Some(y), Some(n))
            }
            None => (None, None),
        };
        let (yes_tree, yes_kept) = self.grow(yes, depth + 1, yes_node, yes_hist);
        let (no_tree, no_kept) = self.grow(no, depth + 1, no_node, no_hist);
        let split = kept.map(|hist| {
            Box::new(KeptSplit {
                param: split.param,
                value: split.value,
                hist,
                yes: yes_kept,
                no: no_kept,
            })
        });
        (
            Node::Inner {
                pred,
                yes: Box::new(yes_tree),
                no: Box::new(no_tree),
            },
            Kept { stats: node, split },
        )
    }

    /// Brings the subtree `node`, of which `kept` is kept, up to date with
    /// `fresh`, the new rows reaching it, and appends all its rows to `out`
    /// in the updated subtree's order. `old` is the subtree's rows before
    /// the refit, in its order. A split whose test the search still picks
    /// is kept and its children refitted; a leaf stays a leaf when `grow`
    /// would stop there before searching. Anything else is regrown from
    /// all its rows.
    fn refit(
        &mut self,
        node: &mut Node,
        kept: &mut Kept,
        old: &[u32],
        fresh: &mut [u32],
        out: &mut Vec<u32>,
        depth: usize,
    ) {
        if fresh.is_empty() {
            // The same rows grow the same subtree.
            out.extend_from_slice(old);
            return;
        }
        kept.stats.add(&Stats::of(self.labels, fresh));
        let stats = kept.stats;
        // With 0/1 labels the rows are pure when they sum to 0 or to their
        // count.
        let pure = stats.sum == 0.0 || stats.sum == stats.n as f64;
        let hist = match (&mut *node, kept.split.as_deref_mut()) {
            (Node::Inner { yes, no, .. }, Some(split)) => {
                self.add_rows(&mut split.hist, fresh);
                let candidates = self.candidates();
                let best = self.best_split(&split.hist, &candidates, &stats);
                if best.is_some_and(|b| (b.param, b.value) == (split.param, split.value)) {
                    let n_yes = self.partition(fresh, split.param, split.value);
                    let (old_yes, old_no) = old.split_at(split.yes.stats.n);
                    let (fresh_yes, fresh_no) = fresh.split_at_mut(n_yes);
                    self.refit(yes, &mut split.yes, old_yes, fresh_yes, out, depth + 1);
                    self.refit(no, &mut split.no, old_no, fresh_no, out, depth + 1);
                    return;
                }
                Some(std::mem::take(&mut split.hist))
            }
            (Node::Leaf(info), None) if self.stops(stats.n, pure, depth) => {
                *info = LeafInfo {
                    n: stats.n,
                    mean: stats.mean(),
                    pure,
                };
                out.extend_from_slice(old);
                out.extend_from_slice(fresh);
                return;
            }
            _ => None,
        };
        let start = out.len();
        out.extend_from_slice(old);
        out.extend_from_slice(fresh);
        (*node, *kept) = self.grow(&mut out[start..], depth, stats, hist);
    }

    /// Whether `grow` stops at a node of `n` rows at `depth`, pure or not,
    /// without searching for a split.
    fn stops(&self, n: usize, pure: bool, depth: usize) -> bool {
        n < self.config.min_samples_split
            || pure
            || self.config.max_depth.is_some_and(|d| depth >= d)
            || self.all_params.is_empty()
    }

    /// The parameters one node's split search considers.
    fn candidates(&mut self) -> Vec<ParamId> {
        let k = self
            .config
            .feature_subset
            .unwrap_or(self.all_params.len())
            .clamp(1, self.all_params.len());
        self.sampler.sample(&self.all_params, k)
    }

    /// Whether a node with statistics `node` at `depth` may split. A guess:
    /// such a node can still find no test.
    fn may_split(&self, node: &Stats, depth: usize) -> bool {
        node.n >= self.config.min_samples_split.max(2)
            && self.config.max_depth.is_none_or(|d| depth < d)
            && node.sse() > 0.0
    }

    /// The histograms of a split's two children, `parent`'s rows split into
    /// `yes` and `no`: the smaller child's rows are scanned, and the larger
    /// child's histogram is `parent` minus the smaller's.
    fn child_histograms(
        &mut self,
        mut parent: Histogram,
        yes: &[u32],
        no: &[u32],
    ) -> (Histogram, Histogram) {
        let yes_smaller = yes.len() <= no.len();
        let small = self.histogram(if yes_smaller { yes } else { no });
        for (bucket, part) in parent.iter_mut().zip(&small) {
            *bucket = bucket.minus(part);
        }
        if yes_smaller {
            (small, parent)
        } else {
            (parent, small)
        }
    }

    /// The histogram of `ids`, in one pass over their rows.
    fn histogram(&mut self, ids: &[u32]) -> Histogram {
        let mut hist = self.free.pop().unwrap_or_default();
        hist.clear();
        hist.resize(self.n_buckets, Stats::default());
        self.add_rows(&mut hist, ids);
        hist
    }

    /// Adds the rows `ids` to the histogram `hist`.
    fn add_rows(&self, hist: &mut [Stats], ids: &[u32]) {
        let width = self.params.len();
        for &i in ids {
            let i = i as usize;
            let y = self.labels[i];
            let row = &self.codes[i * width..(i + 1) * width];
            for (codes, &code) in self.params.iter().zip(row) {
                hist[codes.base + code as usize].push(y);
            }
        }
    }

    /// Exhaustive split search: for each candidate parameter, enumerate `= v`
    /// tests (categorical) or `≤ v` tests (ordinal) over the values observed
    /// at this node, and keep the split with the largest SSE reduction. Ties
    /// break deterministically by (gain, parameter id, value) so identical
    /// inputs grow identical trees.
    fn best_split(&mut self, hist: &[Stats], candidates: &[ParamId], node: &Stats) -> Option<Split> {
        let space = self.space;
        let parent = node.sse();
        let mut best: Option<Split> = None;

        for &p in candidates {
            let codes = &self.params[p.index()];
            let buckets = &hist[codes.base..codes.base + codes.n_values];
            let observed = buckets.iter().filter(|b| b.n > 0).count();
            if observed < 2 {
                continue; // constant at this node: no split possible
            }
            if let Some(rank) = &codes.rank {
                let ranked = &mut self.ranked;
                ranked.clear();
                ranked.resize(rank.len(), Stats::default());
                for (b, &r) in buckets.iter().zip(rank) {
                    ranked[r as usize].add(b);
                }
                for r in 1..ranked.len() {
                    let below = ranked[r - 1];
                    ranked[r].add(&below);
                }
            }

            let domain = space.domain(p);
            let mut seen = 0;
            for v in 0..codes.n_values {
                if buckets[v].n == 0 {
                    continue;
                }
                seen += 1;
                let yes = match &codes.rank {
                    // `≤ v` for every observed value except the largest
                    // (which would send every row left).
                    Some(_) if seen == observed => break,
                    Some(rank) => self.ranked[rank[v] as usize],
                    None => buckets[v],
                };
                let no = node.minus(&yes);
                if yes.n == 0 || no.n == 0 {
                    continue;
                }
                let gain = parent - yes.sse() - no.sse();
                let better = match &best {
                    None => true,
                    Some(b) => {
                        gain > b.gain + 1e-12
                            || ((gain - b.gain).abs() <= 1e-12
                                && (p, domain.value(v))
                                    < (b.param, space.domain(b.param).value(b.value)))
                    }
                };
                if better && gain > -1e-12 {
                    best = Some(Split {
                        gain,
                        param: p,
                        value: v,
                        yes,
                    });
                }
            }
        }
        best
    }

    /// Stable in-place partition of `ids` by the test `param` against its
    /// domain index `value`: rows passing it first, in their previous order,
    /// then the rest. Returns how many pass. Branch-free: every id is
    /// written at both ends (`ids[n_yes]`, which no unread id occupies, and
    /// `spill[n_no]`), and the test's bit advances one of them.
    fn partition(&mut self, ids: &mut [u32], param: ParamId, value: usize) -> usize {
        let p = param.index();
        let codes = &self.params[p];
        let passes: Vec<usize> = (0..codes.n_values)
            .map(|c| usize::from(codes.holds(c, value)))
            .collect();
        let width = self.params.len();
        if self.spill.len() < ids.len() {
            self.spill.resize(ids.len(), 0);
        }
        let spill = &mut self.spill[..ids.len()];
        let (mut n_yes, mut n_no) = (0, 0);
        for k in 0..ids.len() {
            let i = ids[k];
            let pass = passes[self.codes[i as usize * width + p] as usize];
            ids[n_yes] = i;
            spill[n_no] = i;
            n_yes += pass;
            n_no += 1 - pass;
        }
        ids[n_yes..].copy_from_slice(&spill[..n_no]);
        n_yes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bugdoc_core::{Outcome, ParamSpace, Value};
    use std::sync::Arc;

    fn space() -> Arc<ParamSpace> {
        ParamSpace::builder()
            .ordinal("n", [1, 2, 3, 4, 5])
            .categorical("color", ["red", "green", "blue"])
            .build()
    }

    fn inst(s: &ParamSpace, n: i64, color: &str) -> Instance {
        Instance::from_pairs(s, [("n", Value::from(n)), ("color", color.into())])
    }

    fn label(o: Outcome) -> f64 {
        if o.is_fail() {
            1.0
        } else {
            0.0
        }
    }

    /// Rows failing iff n > 3.
    fn threshold_rows(s: &ParamSpace) -> Vec<(Instance, f64)> {
        let mut rows = Vec::new();
        for n in 1..=5 {
            for color in ["red", "green", "blue"] {
                let fail = n > 3;
                rows.push((
                    inst(s, n, color),
                    label(Outcome::from_check(!fail)),
                ));
            }
        }
        rows
    }

    #[test]
    fn learns_threshold_with_single_split() {
        let s = space();
        let tree = DecisionTree::fit(&s, &threshold_rows(&s), &TreeConfig::default());
        // A single `n ≤ 3` split suffices.
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.n_leaves(), 2);
        assert_eq!(tree.predict(&inst(&s, 5, "red")), 1.0);
        assert_eq!(tree.predict(&inst(&s, 2, "blue")), 0.0);
    }

    #[test]
    fn fail_paths_extracts_suspect() {
        let s = space();
        let n = s.by_name("n").unwrap();
        let tree = DecisionTree::fit(&s, &threshold_rows(&s), &TreeConfig::default());
        let fails = tree.fail_paths();
        assert_eq!(fails.len(), 1);
        // The suspect is `n > 3` (the negation of the `≤` split).
        let expected = Conjunction::new(vec![Predicate::new(n, Comparator::Gt, 3)]);
        assert_eq!(
            fails[0].conjunction.canonicalize(&s),
            expected.canonicalize(&s)
        );
        assert!(fails[0].leaf.is_pure_fail());
    }

    #[test]
    fn learns_categorical_equality() {
        let s = space();
        let color = s.by_name("color").unwrap();
        let mut rows = Vec::new();
        for nn in 1..=5 {
            for c in ["red", "green", "blue"] {
                let fail = c == "green";
                rows.push((inst(&s, nn, c), label(Outcome::from_check(!fail))));
            }
        }
        let tree = DecisionTree::fit(&s, &rows, &TreeConfig::default());
        let fails = tree.fail_paths();
        assert_eq!(fails.len(), 1);
        let expected = Conjunction::new(vec![Predicate::eq(color, "green")]);
        assert_eq!(
            fails[0].conjunction.canonicalize(&s),
            expected.canonicalize(&s)
        );
    }

    #[test]
    fn learns_conjunction_cause() {
        let s = space();
        // Fail iff n > 3 AND color = red.
        let mut rows = Vec::new();
        for nn in 1..=5 {
            for c in ["red", "green", "blue"] {
                let fail = nn > 3 && c == "red";
                rows.push((inst(&s, nn, c), label(Outcome::from_check(!fail))));
            }
        }
        let tree = DecisionTree::fit(&s, &rows, &TreeConfig::default());
        let fails = tree.fail_paths();
        assert_eq!(fails.len(), 1);
        let canon = fails[0].conjunction.canonicalize(&s);
        // Semantically: n ∈ {4,5} ∧ color = red.
        let n = s.by_name("n").unwrap();
        let color = s.by_name("color").unwrap();
        let expected = Conjunction::new(vec![
            Predicate::new(n, Comparator::Gt, 3),
            Predicate::eq(color, "red"),
        ]);
        assert_eq!(canon, expected.canonicalize(&s));
    }

    #[test]
    fn grows_full_tree_on_xor() {
        // XOR-style labels have zero first-split gain; the full tree must
        // still separate them (no pruning, paper §4.2).
        let s = ParamSpace::builder()
            .ordinal("a", [0, 1])
            .ordinal("b", [0, 1])
            .build();
        let rows: Vec<(Instance, f64)> = [(0, 0, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0)]
            .into_iter()
            .map(|(a, b, y)| {
                (
                    Instance::from_pairs(&s, [("a", a.into()), ("b", b.into())]),
                    y,
                )
            })
            .collect();
        let tree = DecisionTree::fit(&s, &rows, &TreeConfig::default());
        for (i, y) in &rows {
            assert_eq!(tree.predict(i), *y);
        }
        assert_eq!(tree.fail_paths().len(), 2);
    }

    #[test]
    fn paths_partition_the_space() {
        let s = space();
        let tree = DecisionTree::fit(&s, &threshold_rows(&s), &TreeConfig::default());
        let paths = tree.paths();
        // Every instance matches exactly one path.
        for n in 1..=5 {
            for c in ["red", "green", "blue"] {
                let i = inst(&s, n, c);
                let matching = paths
                    .iter()
                    .filter(|p| p.conjunction.satisfied_by(&i))
                    .count();
                assert_eq!(matching, 1, "instance {} on {} paths", i.display(&s), matching);
            }
        }
        // Leaf sizes sum to the training set size.
        let total: usize = paths.iter().map(|p| p.leaf.n).sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn max_depth_caps_growth() {
        let s = space();
        let mut rows = Vec::new();
        for nn in 1..=5 {
            for c in ["red", "green", "blue"] {
                let fail = nn > 3 && c == "red";
                rows.push((inst(&s, nn, c), label(Outcome::from_check(!fail))));
            }
        }
        let tree = DecisionTree::fit(
            &s,
            &rows,
            &TreeConfig {
                max_depth: Some(1),
                ..TreeConfig::default()
            },
        );
        assert!(tree.depth() <= 1);
        // Predictions are means, not necessarily 0/1.
        let p = tree.predict(&inst(&s, 5, "red"));
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn deterministic_given_same_rows() {
        let s = space();
        let rows = threshold_rows(&s);
        let t1 = DecisionTree::fit(&s, &rows, &TreeConfig::default());
        let t2 = DecisionTree::fit(&s, &rows, &TreeConfig::default());
        assert_eq!(t1.render(&s), t2.render(&s));
    }

    #[test]
    fn regression_labels_predict_means() {
        let s = space();
        // Labels = n as f64; the full tree memorizes them.
        let rows: Vec<(Instance, f64)> = (1..=5).map(|n| (inst(&s, n, "red"), n as f64)).collect();
        let tree = DecisionTree::fit(&s, &rows, &TreeConfig::default());
        for (i, y) in &rows {
            assert!((tree.predict(i) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn render_contains_split() {
        let s = space();
        let tree = DecisionTree::fit(&s, &threshold_rows(&s), &TreeConfig::default());
        let txt = tree.render(&s);
        assert!(txt.contains("n ≤ 3"), "got:\n{txt}");
        assert!(txt.contains("(pure)"));
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        let s = space();
        DecisionTree::fit::<Instance>(&s, &[], &TreeConfig::default());
    }

    /// With no parameters there is nothing to split on: the root is a leaf.
    #[test]
    fn zero_parameter_space_is_one_leaf() {
        let s = ParamSpace::builder().build();
        let empty = s.instance_from_indices(&[]);
        let rows = [(empty.clone(), 0.0), (empty.clone(), 1.0)];
        let tree = DecisionTree::fit(&s, &rows, &TreeConfig::default());
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&empty), 0.5);
    }
}
