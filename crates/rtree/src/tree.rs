//! The R*-tree proper: insertion, deletion, structural invariants.

use crate::node::{BranchEntry, LeafEntry, Node, NodeEntries, NodeId};
use crate::packed::PackedRTree;
use crate::params::RTreeParams;
use crate::query::QueryStats;
use crate::stats::AtomicQueryStats;
use crp_geom::{HyperRect, Point};
use std::sync::{Arc, OnceLock};

/// An in-memory R*-tree mapping rectangles to payloads of type `T`.
///
/// See the crate docs for the design rationale. All structure-modifying
/// operations keep the classic R-tree invariants (checked by
/// [`RTree::check_invariants`] in tests):
///
/// * every non-root node holds between `m` and `M` entries,
/// * the rectangle stored for a child in its parent is exactly the MBR of
///   the child's entries,
/// * all leaves sit at level 0 and the tree is height-balanced.
///
/// Nodes live in an arena indexed by [`NodeId`]; descent paths are threaded
/// explicitly through the modifying operations, so no parent pointers (and
/// no whole-tree searches) are needed. Each arena slot holds its node
/// behind an [`Arc`] and every write goes through [`Arc::make_mut`], so
/// a cloned tree shares all nodes and a mutation copies only the nodes
/// it actually writes (path copying).
pub struct RTree<T> {
    pub(crate) nodes: Vec<Arc<Node<T>>>,
    free: Vec<NodeId>,
    pub(crate) root: NodeId,
    pub(crate) dim: usize,
    pub(crate) params: RTreeParams,
    pub(crate) len: usize,
    /// Incremental-maintenance counters (inserts, removes, entries moved
    /// by forced reinsertion / condense-tree). Bulk loading does not
    /// count: the counters measure the update path a mutable session
    /// pays for, not construction.
    upkeep: QueryStats,
    /// Mutation counter: advanced by every structure-modifying public
    /// operation and stamped into frozen images, so a stale
    /// [`PackedRTree`] snapshot is detectable by tag comparison.
    generation: u64,
    /// Lazily built packed projection of the current tree state,
    /// cleared by every mutation (which holds `&mut self`) and rebuilt
    /// on the next [`RTree::frozen`] call. Held behind an [`Arc`] so a
    /// cloned tree (an MVCC epoch snapshot) shares the image zero-copy
    /// and readers can pin it past the clone's lifetime.
    frozen: OnceLock<Arc<PackedRTree<T>>>,
}

/// Epoch-snapshot clone: the node arena is copied as a vector of
/// [`Arc`] handles, so both trees share every node until one of them
/// writes it (the writer then copies just that node), and an
/// already-built frozen image is shared through its [`Arc`] — a
/// snapshot costs no rebuild and no second copy of nodes or SoA slabs.
impl<T> Clone for RTree<T> {
    fn clone(&self) -> Self {
        let frozen = OnceLock::new();
        if let Some(image) = self.frozen.get() {
            let _ = frozen.set(Arc::clone(image));
        }
        RTree {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            root: self.root,
            dim: self.dim,
            params: self.params,
            len: self.len,
            upkeep: self.upkeep,
            generation: self.generation,
            frozen,
        }
    }
}

/// What gets (re-)inserted during overflow/underflow treatment: either a
/// data record (level 0) or an orphaned subtree root.
enum Item<T> {
    Data(T),
    Subtree(NodeId),
}

impl<T> RTree<T> {
    /// Creates an empty tree for `dim`-dimensional data.
    pub fn new(dim: usize, params: RTreeParams) -> Self {
        RTree {
            nodes: vec![Arc::new(Node::new_leaf())],
            free: Vec::new(),
            root: NodeId(0),
            dim,
            params,
            len: 0,
            upkeep: QueryStats::default(),
            generation: 0,
            frozen: OnceLock::new(),
        }
    }

    /// Empty tree with the paper's 4 KiB-page parameters.
    pub fn with_paper_params(dim: usize) -> Self {
        Self::new(dim, RTreeParams::paper_default(dim))
    }

    /// Number of data entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no data.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Tree height (1 for a single leaf root).
    pub fn height(&self) -> usize {
        self.node(self.root).level as usize + 1
    }

    /// Number of live nodes (for I/O modelling and tests).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Shape parameters.
    pub fn params(&self) -> RTreeParams {
        self.params
    }

    /// The incremental-maintenance counters accumulated so far (only
    /// the `inserts` / `removes` / `reinserts` fields are populated;
    /// query-side node accesses stay in the per-query accumulators).
    pub fn upkeep(&self) -> QueryStats {
        self.upkeep
    }

    /// Resets the maintenance counters, returning the totals so far —
    /// the delta an engine folds into its session accumulator after
    /// each applied update.
    pub fn take_upkeep(&mut self) -> QueryStats {
        std::mem::take(&mut self.upkeep)
    }

    /// MBR of the whole tree, `None` when empty.
    pub fn mbr(&self) -> Option<HyperRect> {
        self.node(self.root).mbr()
    }

    /// The mutation counter stamped into frozen images: advanced by
    /// every [`RTree::insert`] / [`RTree::remove`] that changes the
    /// tree. Two frozen images with equal generations describe the
    /// same tree state.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Invalidates the cached frozen image and tags the new state —
    /// called (under `&mut self`) by every structural mutation.
    fn invalidate_frozen(&mut self) {
        self.generation += 1;
        self.frozen = OnceLock::new();
    }

    /// Builds a fresh packed, read-only SoA projection of the current
    /// tree state (see [`PackedRTree`]). Prefer [`RTree::frozen`],
    /// which caches the image until the next mutation.
    pub fn freeze(&self) -> PackedRTree<T>
    where
        T: Clone,
    {
        PackedRTree::build(self)
    }

    /// The cached frozen image of the current tree state, built on
    /// first use and shared by every reader until a mutation
    /// invalidates it (generation-tagged; rebuilt lazily on the next
    /// call, so incremental `apply` keeps working and each epoch gets a
    /// stable snapshot).
    pub fn frozen(&self) -> &PackedRTree<T>
    where
        T: Clone,
    {
        self.frozen
            .get_or_init(|| Arc::new(PackedRTree::build(self)))
    }

    /// [`RTree::frozen`] that charges a build to `io` as one
    /// [`QueryStats::refreezes`] — how a reader that finds the image
    /// invalidated by an update accounts for the lazy rebuild. Readers
    /// racing on a cold image build it, and count it, once.
    pub fn frozen_counted(&self, io: &AtomicQueryStats) -> &PackedRTree<T>
    where
        T: Clone,
    {
        self.frozen.get_or_init(|| {
            io.absorb(QueryStats {
                refreezes: 1,
                ..QueryStats::default()
            });
            Arc::new(PackedRTree::build(self))
        })
    }

    /// The cached frozen image behind its shared handle — what an MVCC
    /// snapshot pins: the [`Arc`] keeps the packed projection alive for
    /// readers even after the owning tree mutates or drops.
    pub fn frozen_image(&self) -> Arc<PackedRTree<T>>
    where
        T: Clone,
    {
        self.frozen();
        Arc::clone(self.frozen.get().expect("frozen image just built"))
    }

    /// Eagerly (re)builds the frozen image after a mutation, moving the
    /// packed-projection rebuild off the first post-update read path.
    /// Counted in [`QueryStats::refreezes`] via the upkeep accumulator;
    /// a no-op (and not counted) when the image is already warm.
    pub fn refreeze(&mut self)
    where
        T: Clone,
    {
        if self.frozen.get().is_none() {
            let image = Arc::new(PackedRTree::build(self));
            let _ = self.frozen.set(image);
            self.upkeep.refreezes += 1;
        }
    }

    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node<T> {
        &self.nodes[id.index()]
    }

    /// Stores `node` in slot `id`, dropping this tree's handle on the
    /// previous occupant (a clone that shares it keeps it alive).
    fn set_node(&mut self, id: NodeId, node: Node<T>) {
        self.nodes[id.index()] = Arc::new(node);
    }

    pub(crate) fn alloc(&mut self, node: Node<T>) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.set_node(id, node);
            id
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Arc::new(node));
            id
        }
    }

    pub(crate) fn release(&mut self, id: NodeId) {
        // Leave a harmless empty leaf in the slot; the id goes on the
        // free list for reuse.
        self.set_node(id, Node::new_leaf());
        self.free.push(id);
    }

    /// Whether this tree and `other` hold the very same node allocation
    /// in arena slot `id` — true for every node a clone has not written
    /// since it was taken. For tests and memory accounting.
    pub fn shares_node(&self, other: &RTree<T>, id: NodeId) -> bool {
        match (self.nodes.get(id.index()), other.nodes.get(id.index())) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl<T: Clone> RTree<T> {
    /// Write access to one node: copies it first when a clone of this
    /// tree still shares it, so an epoch snapshot never sees the write.
    #[inline]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node<T> {
        Arc::make_mut(&mut self.nodes[id.index()])
    }

    /// Moves the node out of slot `id` (copying it only when a clone
    /// still shares it) and frees the slot for reuse.
    fn take_node(&mut self, id: NodeId) -> Node<T> {
        let node = Arc::clone(&self.nodes[id.index()]);
        self.release(id);
        Arc::unwrap_or_clone(node)
    }

    /// Inserts a rectangle with its payload.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle's dimensionality differs from the tree's.
    pub fn insert(&mut self, rect: HyperRect, data: T) {
        assert_eq!(rect.dim(), self.dim, "dimension mismatch");
        self.invalidate_frozen();
        // Forced reinsertion fires at most once per level per logical
        // insertion (the R*-tree rule).
        let mut reinserted = vec![false; self.height()];
        self.insert_item(rect, Item::Data(data), 0, &mut reinserted);
        self.len += 1;
        self.upkeep.inserts += 1;
    }

    /// Inserts a point (degenerate rectangle).
    pub fn insert_point(&mut self, point: Point, data: T) {
        self.insert(HyperRect::from_point(&point), data);
    }

    fn insert_item(
        &mut self,
        rect: HyperRect,
        item: Item<T>,
        target_level: u32,
        reinserted: &mut Vec<bool>,
    ) {
        let path = self.choose_subtree_path(&rect, target_level);
        let target = *path.last().expect("path contains at least the root");
        match item {
            Item::Data(data) => {
                debug_assert_eq!(target_level, 0);
                self.node_mut(target)
                    .leaf_entries_mut()
                    .push(LeafEntry { rect, data });
            }
            Item::Subtree(child) => {
                self.node_mut(target)
                    .branch_entries_mut()
                    .push(BranchEntry { rect, child });
            }
        }
        self.handle_overflow(path, reinserted);
    }

    /// R*-tree ChooseSubtree: descend to a node at `target_level`,
    /// minimising overlap enlargement just above the leaves and area
    /// enlargement elsewhere. Returns the full descent path (root first).
    fn choose_subtree_path(&self, rect: &HyperRect, target_level: u32) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.height());
        let mut current = self.root;
        loop {
            path.push(current);
            let node = self.node(current);
            if node.level == target_level {
                return path;
            }
            let entries = node.branch_entries();
            debug_assert!(!entries.is_empty(), "internal node with no children");
            let chosen = if node.level == 1 && target_level == 0 {
                // Children are leaves: minimise overlap enlargement.
                pick_least_overlap(entries, rect)
            } else {
                pick_least_enlargement(entries, rect)
            };
            current = entries[chosen].child;
        }
    }

    /// Fixes up the tree after an entry was pushed into `path.last()`:
    /// splits / reinserts overflowing nodes, then refreshes bounding
    /// rectangles up to the root.
    fn handle_overflow(&mut self, mut path: Vec<NodeId>, reinserted: &mut Vec<bool>) {
        loop {
            let current = *path.last().expect("non-empty path");
            if self.node(current).len() <= self.params.max_entries {
                self.refresh_rects_along(&path);
                return;
            }
            let level = self.node(current).level as usize;
            let is_root = current == self.root;
            let can_reinsert = !is_root
                && self.params.reinsert_count > 0
                && level < reinserted.len()
                && !reinserted[level];
            if can_reinsert {
                reinserted[level] = true;
                self.forced_reinsert(&path, reinserted);
                return;
            }
            if is_root {
                self.split_root();
                return;
            }
            let parent = path[path.len() - 2];
            self.split_child(parent, current);
            path.pop();
        }
    }

    /// Recomputes the bounding rectangle stored for each path node in its
    /// parent, walking from the deepest node to the root.
    fn refresh_rects_along(&mut self, path: &[NodeId]) {
        for w in (1..path.len()).rev() {
            self.refresh_child_rect(path[w - 1], path[w]);
        }
    }

    /// Recomputes the rectangle `parent` stores for `child`; a no-op
    /// for an empty child.
    fn refresh_child_rect(&mut self, parent: NodeId, child: NodeId) {
        let Some(child_mbr) = self.node(child).mbr() else {
            return;
        };
        let pnode = self.node_mut(parent);
        for e in pnode.branch_entries_mut().iter_mut() {
            if e.child == child {
                e.rect = child_mbr;
                break;
            }
        }
    }

    /// Removes the `p` entries farthest from the node's centre and
    /// reinserts them (R*-tree forced reinsertion, "close reinsert").
    fn forced_reinsert(&mut self, path: &[NodeId], reinserted: &mut Vec<bool>) {
        let node_id = *path.last().expect("non-empty path");
        let center = self
            .node(node_id)
            .mbr()
            .expect("overflowing node is non-empty")
            .center();
        let level = self.node(node_id).level;
        let p = self
            .params
            .reinsert_count
            .min(self.node(node_id).len() - self.params.min_entries);
        debug_assert!(p >= 1, "overflowing node can always spare one entry");
        self.upkeep.reinserts += p as u64;

        let removed: Vec<(HyperRect, Item<T>)> = {
            let node = self.node_mut(node_id);
            match &mut node.entries {
                NodeEntries::Leaf(v) => {
                    sort_farthest_first(v, &center, |e| &e.rect);
                    v.drain(..p).map(|e| (e.rect, Item::Data(e.data))).collect()
                }
                NodeEntries::Branch(v) => {
                    sort_farthest_first(v, &center, |e| &e.rect);
                    v.drain(..p)
                        .map(|e| (e.rect, Item::Subtree(e.child)))
                        .collect()
                }
            }
        };
        self.refresh_rects_along(path);
        // Reinsert closest-first ("close reinsert" performed best in the
        // original R*-tree evaluation); `removed` is farthest-first.
        for (rect, item) in removed.into_iter().rev() {
            self.insert_item(rect, item, level, reinserted);
        }
    }

    /// Splits the overflowing root, growing the tree by one level.
    fn split_root(&mut self) {
        let level = self.node(self.root).level;
        let (left, right) = self.split_node_contents(self.root);
        let left_rect = left.mbr().expect("split half is non-empty");
        let right_rect = right.mbr().expect("split half is non-empty");
        self.set_node(self.root, left);
        let right_id = self.alloc(right);
        let mut new_root = Node::new_branch(level + 1);
        new_root.branch_entries_mut().push(BranchEntry {
            rect: left_rect,
            child: self.root,
        });
        new_root.branch_entries_mut().push(BranchEntry {
            rect: right_rect,
            child: right_id,
        });
        self.root = self.alloc(new_root);
    }

    /// Splits an overflowing non-root node; the parent receives the new
    /// sibling entry (and may itself overflow — handled by the caller).
    fn split_child(&mut self, parent: NodeId, node_id: NodeId) {
        let (left, right) = self.split_node_contents(node_id);
        let left_rect = left.mbr().expect("split half is non-empty");
        let right_rect = right.mbr().expect("split half is non-empty");
        self.set_node(node_id, left);
        let right_id = self.alloc(right);
        let pnode = self.node_mut(parent);
        for e in pnode.branch_entries_mut().iter_mut() {
            if e.child == node_id {
                e.rect = left_rect.clone();
                break;
            }
        }
        pnode.branch_entries_mut().push(BranchEntry {
            rect: right_rect,
            child: right_id,
        });
    }

    /// Applies the R*-tree topological split to the entries of `node_id`,
    /// returning the two halves as fresh nodes (same level).
    fn split_node_contents(&mut self, node_id: NodeId) -> (Node<T>, Node<T>) {
        let level = self.node(node_id).level;
        let node = self.node_mut(node_id);
        match &mut node.entries {
            NodeEntries::Leaf(v) => {
                let entries = std::mem::take(v);
                let (l, r) = split_entries(entries, |e| &e.rect, self.params.min_entries, self.dim);
                (
                    Node {
                        level,
                        entries: NodeEntries::Leaf(l),
                    },
                    Node {
                        level,
                        entries: NodeEntries::Leaf(r),
                    },
                )
            }
            NodeEntries::Branch(v) => {
                let entries = std::mem::take(v);
                let (l, r) = split_entries(entries, |e| &e.rect, self.params.min_entries, self.dim);
                (
                    Node {
                        level,
                        entries: NodeEntries::Branch(l),
                    },
                    Node {
                        level,
                        entries: NodeEntries::Branch(r),
                    },
                )
            }
        }
    }
}

impl<T> RTree<T> {
    /// The root's node id — the entry point for structural walks of the
    /// arena (MVCC node-sharing checks, the packed image's reference
    /// descent in tests); reads go through [`RTree::frozen`].
    pub fn root_node_id(&self) -> NodeId {
        self.root
    }

    /// Whether `id` refers to a leaf node.
    pub fn node_is_leaf(&self, id: NodeId) -> bool {
        self.node(id).is_leaf()
    }

    /// Visits the entries of one node: branch entries yield
    /// `(rect, Some(child), None)`, leaf entries `(rect, None, Some(&data))`.
    /// Callers doing their own traversal are responsible for counting the
    /// node access.
    pub fn visit_children(
        &self,
        id: NodeId,
        mut f: impl FnMut(&HyperRect, Option<NodeId>, Option<&T>),
    ) {
        match &self.node(id).entries {
            NodeEntries::Branch(v) => {
                for e in v {
                    f(&e.rect, Some(e.child), None);
                }
            }
            NodeEntries::Leaf(v) => {
                for e in v {
                    f(&e.rect, None, Some(&e.data));
                }
            }
        }
    }

    /// Visits every `(rect, data)` pair in the tree (arbitrary order).
    pub fn for_each(&self, mut f: impl FnMut(&HyperRect, &T)) {
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            match &node.entries {
                NodeEntries::Branch(v) => stack.extend(v.iter().map(|e| e.child)),
                NodeEntries::Leaf(v) => {
                    for e in v {
                        f(&e.rect, &e.data);
                    }
                }
            }
        }
    }

    /// Validates all structural invariants; panics with a diagnostic on
    /// violation. Intended for tests and debug assertions.
    pub fn check_invariants(&self) {
        let root = self.node(self.root);
        if !root.is_leaf() {
            assert!(
                root.len() >= 2,
                "non-leaf root must have >= 2 children, has {}",
                root.len()
            );
        }
        let mut seen = 0usize;
        self.check_node(self.root, self.node(self.root).level, true, &mut seen);
        assert_eq!(seen, self.len, "len() does not match stored entries");
    }

    fn check_node(&self, id: NodeId, expected_level: u32, is_root: bool, seen: &mut usize) {
        let node = self.node(id);
        assert_eq!(node.level, expected_level, "level mismatch at {id:?}");
        assert!(
            node.len() <= self.params.max_entries,
            "node {id:?} overflows: {} > {}",
            node.len(),
            self.params.max_entries
        );
        if !is_root {
            assert!(
                node.len() >= self.params.min_entries,
                "node {id:?} underflows: {} < {}",
                node.len(),
                self.params.min_entries
            );
        }
        match &node.entries {
            NodeEntries::Branch(v) => {
                assert!(expected_level > 0, "branch node at level 0");
                for e in v {
                    let child_mbr = self
                        .node(e.child)
                        .mbr()
                        .expect("child of a branch node is non-empty");
                    assert_eq!(
                        e.rect, child_mbr,
                        "stored child rect differs from child MBR under {id:?}"
                    );
                    self.check_node(e.child, expected_level - 1, false, seen);
                }
            }
            NodeEntries::Leaf(v) => {
                assert_eq!(expected_level, 0, "leaf must sit at level 0");
                *seen += v.len();
            }
        }
    }
}

impl<T: Clone + PartialEq> RTree<T> {
    /// Removes one entry matching `rect` and `data`. Returns `true` when
    /// an entry was removed. Underflowing nodes are dissolved and their
    /// entries reinserted (condense-tree).
    pub fn remove(&mut self, rect: &HyperRect, data: &T) -> bool {
        let mut path = Vec::new();
        if !self.find_leaf_path(self.root, rect, data, &mut path) {
            return false;
        }
        self.invalidate_frozen();
        let leaf = *path.last().expect("found path is non-empty");
        {
            let entries = self.node_mut(leaf).leaf_entries_mut();
            let pos = entries
                .iter()
                .position(|e| &e.rect == rect && &e.data == data)
                .expect("find_leaf_path located the entry");
            entries.swap_remove(pos);
        }
        self.len -= 1;
        self.upkeep.removes += 1;
        self.condense(path);
        true
    }

    fn find_leaf_path(
        &self,
        current: NodeId,
        rect: &HyperRect,
        data: &T,
        path: &mut Vec<NodeId>,
    ) -> bool {
        path.push(current);
        let node = self.node(current);
        match &node.entries {
            NodeEntries::Leaf(v) => {
                if v.iter().any(|e| &e.rect == rect && &e.data == data) {
                    return true;
                }
            }
            NodeEntries::Branch(v) => {
                for e in v.iter().filter(|e| e.rect.contains_rect(rect)) {
                    if self.find_leaf_path(e.child, rect, data, path) {
                        return true;
                    }
                }
            }
        }
        path.pop();
        false
    }

    /// Condense-tree: walking the deletion path bottom-up, dissolve
    /// underflowing nodes (orphaning their entries), refresh surviving
    /// rectangles, shrink the root, then reinsert orphans at their level.
    fn condense(&mut self, path: Vec<NodeId>) {
        let mut orphans: Vec<(u32, HyperRect, Item<T>)> = Vec::new();
        let mut dissolved = vec![false; path.len()];
        for i in (1..path.len()).rev() {
            let node_id = path[i];
            let parent = path[i - 1];
            if self.node(node_id).len() < self.params.min_entries {
                dissolved[i] = true;
                let entries = self.node_mut(parent).branch_entries_mut();
                let pos = entries
                    .iter()
                    .position(|e| e.child == node_id)
                    .expect("child listed in parent");
                entries.swap_remove(pos);
                let node = self.take_node(node_id);
                let level = node.level;
                match node.entries {
                    NodeEntries::Leaf(v) => {
                        orphans.extend(v.into_iter().map(|e| (0, e.rect, Item::Data(e.data))))
                    }
                    NodeEntries::Branch(v) => orphans.extend(
                        v.into_iter()
                            .map(|e| (level, e.rect, Item::Subtree(e.child))),
                    ),
                }
            }
        }
        // Refresh the rectangles of the surviving path nodes bottom-up.
        // Only the path nodes' own MBRs can have changed, so the shared
        // path walk suffices (recomputing every sibling's MBR here made
        // deletion O(fanout²) — measurably slower than a bulk rebuild
        // at the paper's 4 KiB fanout). A dissolved path node was
        // released (its arena slot now holds an empty leaf placeholder):
        // it neither gets a rectangle nor stores one for its surviving
        // child, which is an orphan now.
        for w in (1..path.len()).rev() {
            if !dissolved[w] && !dissolved[w - 1] {
                self.refresh_child_rect(path[w - 1], path[w]);
            }
        }
        // Shrink the root while it is an internal node with one child.
        while !self.node(self.root).is_leaf() && self.node(self.root).len() == 1 {
            let old_root = self.root;
            let child = self.node(self.root).branch_entries()[0].child;
            self.root = child;
            self.release(old_root);
        }
        if self.len == 0 && !self.node(self.root).is_leaf() {
            let old_root = self.root;
            let leaf = self.alloc(Node::new_leaf());
            self.root = leaf;
            self.release(old_root);
        }
        // Reinsert orphans. Subtrees whose height no longer fits under the
        // (possibly shrunken) root are dissolved into records. Each moved
        // item — a data record, or a subtree reinserted whole — counts
        // once in `upkeep.reinserts`; dissolved subtrees are counted per
        // record inside `dissolve_into_records` instead (not both).
        for (level, rect, item) in orphans {
            match item {
                Item::Data(data) => {
                    self.upkeep.reinserts += 1;
                    let mut reinserted = vec![false; self.height()];
                    self.insert_item(rect, Item::Data(data), 0, &mut reinserted);
                }
                Item::Subtree(child) => {
                    let child_level = level - 1;
                    debug_assert_eq!(self.node(child).level, child_level);
                    if self.node(self.root).level > child_level {
                        self.upkeep.reinserts += 1;
                        let mut reinserted = vec![false; self.height()];
                        // The rectangle the dissolved parent stored is
                        // stale when the subtree lay on the deletion path.
                        let rect = self.node(child).mbr().unwrap_or(rect);
                        self.insert_item(
                            rect,
                            Item::Subtree(child),
                            child_level + 1,
                            &mut reinserted,
                        );
                    } else {
                        self.dissolve_into_records(child);
                    }
                }
            }
        }
    }

    /// Reinserts every record of a subtree individually and releases its
    /// nodes (rare path: the tree shrank below the orphan's height).
    fn dissolve_into_records(&mut self, id: NodeId) {
        let node = self.take_node(id);
        match node.entries {
            NodeEntries::Leaf(v) => {
                self.upkeep.reinserts += v.len() as u64;
                for e in v {
                    let mut reinserted = vec![false; self.height()];
                    self.insert_item(e.rect, Item::Data(e.data), 0, &mut reinserted);
                }
            }
            NodeEntries::Branch(v) => {
                for e in v {
                    self.dissolve_into_records(e.child);
                }
            }
        }
    }
}

fn sort_farthest_first<E>(entries: &mut [E], center: &Point, rect_of: impl Fn(&E) -> &HyperRect) {
    // `rect.center().distance_sq(center)` without building the centre:
    // the same terms, summed in the same order.
    let dist_sq = |r: &HyperRect| -> f64 {
        (0..center.dim())
            .map(|i| {
                let d = 0.5 * (r.lo()[i] + r.hi()[i]) - center[i];
                d * d
            })
            .sum()
    };
    entries.sort_by(|a, b| {
        let da = dist_sq(rect_of(a));
        let db = dist_sq(rect_of(b));
        db.partial_cmp(&da).expect("finite distances")
    });
}

fn pick_least_enlargement(entries: &[BranchEntry], rect: &HyperRect) -> usize {
    let mut best = 0usize;
    let mut best_enl = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, e) in entries.iter().enumerate() {
        let enl = e.rect.enlargement(rect);
        let area = e.rect.volume();
        if enl < best_enl || (enl == best_enl && area < best_area) {
            best = i;
            best_enl = enl;
            best_area = area;
        }
    }
    best
}

/// Above this many children, ChooseSubtree only evaluates the overlap
/// criterion for the entries with least area enlargement (the R*-tree
/// paper's own recommendation for large fanouts — the full criterion is
/// O(M²), which dominates insertion at the 4 KiB-page fanout).
const OVERLAP_CANDIDATES: usize = 16;

fn pick_least_overlap(entries: &[BranchEntry], rect: &HyperRect) -> usize {
    let mut candidates: Vec<usize> = (0..entries.len()).collect();
    if entries.len() > OVERLAP_CANDIDATES {
        // Deterministic preselection: smallest enlargement, ties by
        // area then index (keys computed once, not per comparison).
        let keys: Vec<(f64, f64)> = entries
            .iter()
            .map(|e| (e.rect.enlargement(rect), e.rect.volume()))
            .collect();
        candidates.sort_by(|&a, &b| {
            keys[a]
                .partial_cmp(&keys[b])
                .expect("finite enlargements and volumes")
                .then(a.cmp(&b))
        });
        candidates.truncate(OVERLAP_CANDIDATES);
    }
    let mut best = candidates[0];
    let mut best_overlap_delta = f64::INFINITY;
    let mut best_enl = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for &i in &candidates {
        let e = &entries[i];
        let enlarged = e.rect.union(rect);
        let mut overlap_before = 0.0;
        let mut overlap_after = 0.0;
        for (j, other) in entries.iter().enumerate() {
            if i == j {
                continue;
            }
            overlap_before += e.rect.overlap_volume(&other.rect);
            overlap_after += enlarged.overlap_volume(&other.rect);
        }
        let delta = overlap_after - overlap_before;
        let enl = e.rect.enlargement(rect);
        let area = e.rect.volume();
        if delta < best_overlap_delta
            || (delta == best_overlap_delta
                && (enl < best_enl || (enl == best_enl && area < best_area)))
        {
            best = i;
            best_overlap_delta = delta;
            best_enl = enl;
            best_area = area;
        }
    }
    best
}

/// R*-tree split: choose the split axis by minimum total margin over all
/// legal distributions, then the distribution with minimum overlap
/// (ties: minimum total area). Generic over entry type via a rect
/// accessor so leaf and branch entries share the implementation.
pub(crate) fn split_entries<E>(
    mut entries: Vec<E>,
    rect_of: impl Fn(&E) -> &HyperRect,
    min_entries: usize,
    dim: usize,
) -> (Vec<E>, Vec<E>) {
    let total = entries.len();
    debug_assert!(total >= 2 * min_entries, "not enough entries to split");
    let k_range = min_entries..=(total - min_entries);

    // Pick the axis with the smallest margin sum, considering entries
    // sorted by lower and by upper bound.
    let mut best_axis = 0usize;
    let mut best_by_upper = false;
    let mut best_margin = f64::INFINITY;
    for axis in 0..dim {
        for by_upper in [false, true] {
            sort_by_axis(&mut entries, &rect_of, axis, by_upper);
            let (lo_mbrs, hi_mbrs) = prefix_suffix_mbrs(&entries, &rect_of);
            let mut margin_sum = 0.0;
            for k in k_range.clone() {
                margin_sum += lo_mbrs[k - 1].margin() + hi_mbrs[k].margin();
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_axis = axis;
                best_by_upper = by_upper;
            }
        }
    }

    sort_by_axis(&mut entries, &rect_of, best_axis, best_by_upper);
    let (lo_mbrs, hi_mbrs) = prefix_suffix_mbrs(&entries, &rect_of);
    let mut best_k = min_entries;
    let mut best_overlap = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for k in k_range {
        let overlap = lo_mbrs[k - 1].overlap_volume(&hi_mbrs[k]);
        let area = lo_mbrs[k - 1].volume() + hi_mbrs[k].volume();
        if overlap < best_overlap || (overlap == best_overlap && area < best_area) {
            best_overlap = overlap;
            best_area = area;
            best_k = k;
        }
    }

    let right = entries.split_off(best_k);
    (entries, right)
}

fn sort_by_axis<E>(
    entries: &mut [E],
    rect_of: &impl Fn(&E) -> &HyperRect,
    axis: usize,
    by_upper: bool,
) {
    entries.sort_by(|a, b| {
        let (ra, rb) = (rect_of(a), rect_of(b));
        let (ka, kb) = if by_upper {
            (ra.hi()[axis], rb.hi()[axis])
        } else {
            (ra.lo()[axis], rb.lo()[axis])
        };
        ka.partial_cmp(&kb).expect("finite coordinates")
    });
}

/// MBRs of every prefix (`lo_mbrs[i]` covers entries `0..=i`) and suffix
/// (`hi_mbrs[i]` covers entries `i..`).
fn prefix_suffix_mbrs<E>(
    entries: &[E],
    rect_of: &impl Fn(&E) -> &HyperRect,
) -> (Vec<HyperRect>, Vec<HyperRect>) {
    let n = entries.len();
    let mut lo = Vec::with_capacity(n);
    let mut acc = rect_of(&entries[0]).clone();
    lo.push(acc.clone());
    for e in &entries[1..] {
        acc.expand_to_rect(rect_of(e));
        lo.push(acc.clone());
    }
    let mut hi = vec![rect_of(&entries[n - 1]).clone(); n];
    for i in (0..n - 1).rev() {
        let mut r = rect_of(&entries[i]).clone();
        r.expand_to_rect(&hi[i + 1]);
        hi[i] = r;
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    #[test]
    fn empty_tree() {
        let tree: RTree<u32> = RTree::new(2, RTreeParams::with_fanout(8));
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert!(tree.mbr().is_none());
        tree.check_invariants();
    }

    #[test]
    fn sequential_inserts_keep_invariants() {
        let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(4));
        for i in 0..200usize {
            tree.insert_point(pt(i as f64, (i * 7 % 31) as f64), i);
            tree.check_invariants();
        }
        assert_eq!(tree.len(), 200);
        assert!(tree.height() > 1);
        let mut count = 0;
        tree.for_each(|_, _| count += 1);
        assert_eq!(count, 200);
    }

    #[test]
    fn random_inserts_many_duplicates() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut tree: RTree<u32> = RTree::new(3, RTreeParams::with_fanout(8));
        for i in 0..500u32 {
            let p = Point::new(
                (0..3)
                    .map(|_| rng.random_range(0.0..10.0f64).round())
                    .collect::<Vec<_>>(),
            );
            tree.insert_point(p, i);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 500);
    }

    #[test]
    fn rect_entries_supported() {
        let mut tree: RTree<u32> = RTree::new(2, RTreeParams::with_fanout(4));
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..100u32 {
            let c = pt(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0));
            let r = HyperRect::centered(
                &c,
                &[rng.random_range(0.0..5.0), rng.random_range(0.0..5.0)],
            );
            tree.insert(r, i);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 100);
    }

    #[test]
    fn remove_existing_and_missing() {
        let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(4));
        let mut rects = Vec::new();
        for i in 0..120usize {
            let p = pt((i % 12) as f64, (i / 12) as f64);
            let r = HyperRect::from_point(&p);
            tree.insert(r.clone(), i);
            rects.push(r);
        }
        assert!(!tree.remove(&rects[3], &999)); // wrong payload
        assert!(tree.remove(&rects[3], &3));
        assert!(!tree.remove(&rects[3], &3)); // already gone
        assert_eq!(tree.len(), 119);
        tree.check_invariants();
        // Remove everything.
        for i in (0..120usize).filter(|i| *i != 3) {
            assert!(tree.remove(&rects[i], &i), "failed to remove {i}");
            tree.check_invariants();
        }
        assert!(tree.is_empty());
    }

    #[test]
    fn remove_heavy_keeps_invariants() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(5));
        let mut live: Vec<(HyperRect, usize)> = Vec::new();
        for i in 0..300usize {
            let p = pt(rng.random_range(0.0..50.0), rng.random_range(0.0..50.0));
            let r = HyperRect::from_point(&p);
            tree.insert(r.clone(), i);
            live.push((r, i));
        }
        // Interleave removals and insertions.
        for step in 0..200usize {
            if step % 3 != 2 && !live.is_empty() {
                let idx = rng.random_range(0..live.len());
                let (r, d) = live.swap_remove(idx);
                assert!(tree.remove(&r, &d));
            } else {
                let p = pt(rng.random_range(0.0..50.0), rng.random_range(0.0..50.0));
                let r = HyperRect::from_point(&p);
                tree.insert(r.clone(), 1000 + step);
                live.push((r, 1000 + step));
            }
            tree.check_invariants();
        }
        assert_eq!(tree.len(), live.len());
    }

    #[test]
    fn draining_a_bulk_loaded_tree_in_reverse_keeps_invariants() {
        // Draining in reverse empties the STR tiles back to front, so
        // condense dissolves underfull path nodes whose child on the
        // deletion path survived — that child's stored rectangle is
        // stale, and the dissolved node's arena slot is released.
        let mut rng = StdRng::seed_from_u64(7);
        let items: Vec<(Point, usize)> = (0..97usize)
            .map(|i| {
                let p = pt(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0));
                (p, i)
            })
            .collect();
        let mut tree = RTree::bulk_load_points(2, RTreeParams::with_fanout(4), items.clone());
        tree.check_invariants();
        for (p, i) in items.iter().rev() {
            assert!(tree.remove(&HyperRect::from_point(p), i), "remove {i}");
            tree.check_invariants();
        }
        assert!(tree.is_empty());
    }

    #[test]
    fn upkeep_counts_the_update_path() {
        let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(4));
        let mut rects = Vec::new();
        for i in 0..80usize {
            let r = HyperRect::from_point(&pt((i % 9) as f64, (i / 9) as f64));
            tree.insert(r.clone(), i);
            rects.push(r);
        }
        let after_inserts = tree.upkeep();
        assert_eq!(after_inserts.inserts, 80);
        assert_eq!(after_inserts.removes, 0);
        // A small fanout forces overflow treatment: forced reinsertion
        // must have moved entries.
        assert!(after_inserts.reinserts > 0, "no reinserts at fanout 4");
        for (i, r) in rects.iter().enumerate() {
            assert!(tree.remove(r, &i));
        }
        let total = tree.upkeep();
        assert_eq!(total.removes, 80);
        // take_upkeep drains the counters.
        assert_eq!(tree.take_upkeep(), total);
        assert_eq!(tree.upkeep(), QueryStats::default());
        // Query-side fields are never touched by maintenance.
        assert_eq!(total.node_accesses, 0);
        assert_eq!(total.leaf_accesses, 0);
    }

    #[test]
    fn no_reinsert_configuration_works() {
        let mut params = RTreeParams::with_fanout(4);
        params.reinsert_count = 0;
        let mut tree: RTree<usize> = RTree::new(2, params);
        for i in 0..100usize {
            tree.insert_point(pt(i as f64, i as f64), i);
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 100);
    }

    #[test]
    fn split_entries_respects_min_fill() {
        let entries: Vec<(HyperRect, usize)> = (0..10)
            .map(|i| (HyperRect::from_point(&pt(i as f64, 0.0)), i))
            .collect();
        let (l, r) = split_entries(entries, |e| &e.0, 4, 2);
        assert!(l.len() >= 4 && r.len() >= 4);
        assert_eq!(l.len() + r.len(), 10);
        // The margin heuristic should split along x cleanly: all lefts
        // before all rights.
        let lmax = l.iter().map(|e| e.0.lo()[0]).fold(f64::MIN, f64::max);
        let rmin = r.iter().map(|e| e.0.lo()[0]).fold(f64::MAX, f64::min);
        assert!(lmax < rmin);
    }

    #[test]
    fn large_insert_then_drain() {
        let mut tree: RTree<usize> = RTree::with_paper_params(2);
        let mut items = Vec::new();
        let mut rng = StdRng::seed_from_u64(99);
        for i in 0..2000usize {
            let p = pt(
                rng.random_range(0.0..10_000.0),
                rng.random_range(0.0..10_000.0),
            );
            let r = HyperRect::from_point(&p);
            tree.insert(r.clone(), i);
            items.push((r, i));
        }
        tree.check_invariants();
        for (r, i) in &items {
            assert!(tree.remove(r, i));
        }
        assert!(tree.is_empty());
        tree.check_invariants();
    }

    /// Every node reachable from the root.
    fn reachable(tree: &RTree<usize>) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![tree.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            if let NodeEntries::Branch(v) = &tree.node(id).entries {
                stack.extend(v.iter().map(|e| e.child));
            }
        }
        out
    }

    fn entries(tree: &RTree<usize>) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        tree.for_each(|r, &i| out.push((format!("{r:?}"), i)));
        out.sort();
        out
    }

    /// Asserts path copying after an update to `tree` taken since
    /// `snapshot` was cloned from it: every node the two no longer
    /// share was written (fresh slot or new content) or sits above a
    /// node the two no longer share. Returns the number of copies.
    fn assert_path_copied(tree: &RTree<usize>, snapshot: &RTree<usize>) -> usize {
        let before: std::collections::HashSet<NodeId> = reachable(snapshot).into_iter().collect();
        let mut copied = 0;
        for id in reachable(tree) {
            if tree.shares_node(snapshot, id) {
                continue;
            }
            copied += 1;
            let written = !before.contains(&id)
                || format!("{:?}", tree.node(id)) != format!("{:?}", snapshot.node(id));
            let above_copy = match &tree.node(id).entries {
                NodeEntries::Branch(v) => v.iter().any(|e| !tree.shares_node(snapshot, e.child)),
                NodeEntries::Leaf(_) => false,
            };
            assert!(
                written || above_copy,
                "{id:?} copied off every written path"
            );
        }
        copied
    }

    #[test]
    fn clones_share_nodes_and_removal_copies_one_path() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(8));
        let mut items = Vec::new();
        for i in 0..400usize {
            let r = HyperRect::from_point(&pt(
                rng.random_range(0.0..100.0),
                rng.random_range(0.0..100.0),
            ));
            tree.insert(r.clone(), i);
            items.push((r, i));
        }
        assert!(tree.height() >= 3);
        let snapshot = tree.clone();
        assert!(reachable(&tree)
            .iter()
            .all(|&id| tree.shares_node(&snapshot, id)));

        // A removal that leaves its leaf above the minimum fill copies
        // exactly the root-to-leaf path and shares everything else.
        let mut exact = 0;
        for (r, i) in items.iter().take(40) {
            let mut path = Vec::new();
            assert!(tree.find_leaf_path(tree.root, r, i, &mut path));
            let leaf_len = tree.node(*path.last().unwrap()).len();
            let snapshot = tree.clone();
            let height = tree.height();
            assert!(tree.remove(r, i));
            let copied = assert_path_copied(&tree, &snapshot);
            if leaf_len > tree.params.min_entries {
                assert_eq!(copied, height, "removal of {i} copied more than its path");
                exact += 1;
            }
            assert!(copied < reachable(&tree).len() / 2);
        }
        assert!(exact > 0, "no removal left its leaf above the minimum fill");
    }

    #[test]
    fn updates_on_a_clone_copy_only_written_paths() {
        // Fanout 4 forces splits, forced reinsertion and condense-tree
        // dissolves, all of which must copy only what they write and
        // leave the snapshot exactly as it was.
        let mut rng = StdRng::seed_from_u64(31);
        let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(4));
        let mut live: Vec<(HyperRect, usize)> = Vec::new();
        for step in 0..600usize {
            let snapshot = tree.clone();
            let frozen_entries = entries(&snapshot);
            if step % 3 == 2 && !live.is_empty() {
                let (r, d) = live.swap_remove(rng.random_range(0..live.len()));
                assert!(tree.remove(&r, &d));
            } else {
                let r = HyperRect::from_point(&pt(
                    rng.random_range(0.0..50.0),
                    rng.random_range(0.0..50.0),
                ));
                tree.insert(r.clone(), step);
                live.push((r, step));
            }
            assert_path_copied(&tree, &snapshot);
            tree.check_invariants();
            snapshot.check_invariants();
            assert_eq!(
                entries(&snapshot),
                frozen_entries,
                "an update leaked into a clone"
            );
        }
        assert_eq!(tree.len(), live.len());
    }
}
