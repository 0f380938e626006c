//! Islands: the parts of a graph that back-propagation never crosses, and
//! the training step that runs them on two threads.
//!
//! [`find`] is a pure function of the graph (see the graph module docs,
//! "Islands", for the rule and why no bit can move). [`run`] is the step's
//! schedule: the caller and at most one scoped helper thread claim whole
//! islands, in the plan's order, from one shared cursor; a value one island
//! reads from another crosses on a [`Board`].

use super::{Node, NodeId};
use amalgam_tensor::{scratch, Tensor};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

/// The name of a training step's helper thread. No thread gate counts it:
/// it shares no prefix with the service's `cloud-*` threads.
pub const HELPER_THREAD: &str = "nn-island";

/// The smallest share of a step worth a helper thread, in estimated
/// multiply-adds of the islands the helper would take (see
/// [`Islands::forks`]). The estimate runs at 10–25 thousand per µs of those
/// islands' forward and backward on the models here, so the gate is 20–50 µs
/// of work: two to three times what a scoped spawn and join cost
/// (10–17 µs). The dispatch benchmark's one-image LeNet-5 job (8 px, two
/// sub-networks) estimates a ninth of it per step and stays serial; a
/// LeNet-5 batch of 16 at 16–24 px estimates 8–16 times it, a
/// language-model batch of 8 windows of 12–20 tokens 4–7 times.
pub const FORK_MIN_WORK: usize = 1 << 19;

/// Which steps fork. A test hook, not an option: see
/// [`GraphModel::set_forking_for_tests`](super::GraphModel::set_forking_for_tests).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Forking {
    /// [`Islands::forks`] decides (the only behaviour outside tests).
    #[default]
    Rule,
    /// Every step runs on the caller alone.
    Never,
    /// Every step with two islands or more forks, and the caller runs only
    /// the first: the helper runs all the others unless it cannot start.
    Always,
}

/// The island plan of a graph: which nodes back-propagation joins, the order
/// a step claims them in, and what crosses between them.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Islands {
    /// The island of each node; `None` for an external input.
    of: Vec<Option<usize>>,
    /// Each island's members in topological order, islands in claim order.
    members: Vec<Vec<usize>>,
    /// The external-input nodes: what the caller runs before any island.
    inputs: Vec<usize>,
    /// `(reader, node)`: `reader` takes `node`'s value from another island.
    crossings: Vec<(usize, usize)>,
    /// Whether a part other than the node's own reads its value: an
    /// external input any island reads, a node a tap reads across.
    published: Vec<bool>,
    /// Whether back-propagation must reach the node (see
    /// `GraphModel::backward`).
    wants: Vec<bool>,
    /// Trainable scalars per island, in claim order: `[in convolution
    /// kernels, in everything else]`.
    params: Vec<[usize; 2]>,
}

/// The island plan of `nodes` with external inputs `inputs`.
pub(super) fn find(nodes: &[Node], inputs: &[NodeId]) -> Islands {
    let n = nodes.len();
    let external = |i: usize| inputs.iter().any(|id| id.0 == i);
    // Components over the edges that carry gradient: not from an external
    // input, not into a node that cuts it.
    let mut root: Vec<usize> = (0..n).collect();
    fn find_root(root: &mut [usize], mut i: usize) -> usize {
        while root[i] != i {
            root[i] = root[root[i]];
            i = root[i];
        }
        i
    }
    for (i, node) in nodes.iter().enumerate() {
        if external(i) || node.layer.cuts_gradient() {
            continue;
        }
        for id in node.inputs.iter().filter(|id| !external(id.0)) {
            let (a, b) = (find_root(&mut root, i), find_root(&mut root, id.0));
            root[a.max(b)] = a.min(b);
        }
    }
    // One island per component, numbered by its first node until the claim
    // order renumbers them.
    let roots: Vec<usize> = (0..n).map(|i| find_root(&mut root, i)).collect();
    let mut component: Vec<Option<usize>> = vec![None; n];
    let mut members: Vec<Vec<usize>> = Vec::new();
    let mut raw_of: Vec<Option<usize>> = vec![None; n];
    for i in (0..n).filter(|&i| !external(i)) {
        let c = *component[roots[i]].get_or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        members[c].push(i);
        raw_of[i] = Some(c);
    }

    let mut crossings = Vec::new();
    let mut published = vec![false; n];
    for (i, node) in nodes.iter().enumerate() {
        let Some(own) = raw_of[i] else {
            continue;
        };
        for id in &node.inputs {
            match raw_of[id.0] {
                None => published[id.0] = true,
                Some(theirs) if theirs != own => {
                    published[id.0] = true;
                    if !crossings.contains(&(i, id.0)) {
                        crossings.push((i, id.0));
                    }
                }
                Some(_) => {}
            }
        }
    }
    // Each node's trainable scalars, `[in convolution kernels, in the
    // rest]`, and whether back-propagation must reach it.
    let mut scalars = vec![[0, 0]; n];
    let mut wants = vec![false; n];
    for (i, node) in nodes.iter().enumerate() {
        let params = node.layer.params();
        for p in &params {
            scalars[i][usize::from(p.value.dims().len() != 4)] += p.numel();
        }
        wants[i] = !params.is_empty()
            || (!node.layer.cuts_gradient() && node.inputs.iter().any(|id| wants[id.0]));
    }
    let params: Vec<[usize; 2]> = members
        .iter()
        .map(|m| {
            m.iter()
                .fold([0, 0], |[a, b], &i| [a + scalars[i][0], b + scalars[i][1]])
        })
        .collect();
    let size = |c: usize| params[c][0] + params[c][1];

    // Claim order: islands after the islands they read, the largest ready
    // one first, so that the caller starts on the longest. Reads that loop
    // between islands leave no such order: the graph is then one island.
    let k = members.len();
    let mut after: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut blocked = vec![0usize; k];
    for &(reader, node) in &crossings {
        let (from, to) = (
            raw_of[node].expect("an island"),
            raw_of[reader].expect("an island"),
        );
        if !after[from].contains(&to) {
            after[from].push(to);
            blocked[to] += 1;
        }
    }
    let mut order = Vec::with_capacity(k);
    let mut ready: Vec<usize> = (0..k).filter(|&c| blocked[c] == 0).collect();
    while let Some(at) = (0..ready.len()).max_by_key(|&r| (size(ready[r]), usize::MAX - ready[r])) {
        let next = ready.swap_remove(at);
        order.push(next);
        for &to in &after[next] {
            blocked[to] -= 1;
            if blocked[to] == 0 {
                ready.push(to);
            }
        }
    }
    let (members, of, crossings, params) = if order.len() == k {
        let mut rank = vec![0; k];
        for (r, &c) in order.iter().enumerate() {
            rank[c] = r;
        }
        let of: Vec<Option<usize>> = raw_of.iter().map(|c| c.map(|c| rank[c])).collect();
        let members: Vec<Vec<usize>> = order
            .iter()
            .map(|&c| std::mem::take(&mut members[c]))
            .collect();
        let params = order.iter().map(|&c| params[c]).collect();
        (members, of, crossings, params)
    } else {
        let all: Vec<usize> = (0..n).filter(|&i| !external(i)).collect();
        let of = (0..n).map(|i| (!external(i)).then_some(0)).collect();
        published = (0..n).map(external).collect();
        let sum = params.iter().fold([0, 0], |[a, b], [c, d]| [a + c, b + d]);
        (vec![all], of, Vec::new(), vec![sum])
    };

    Islands {
        of,
        members,
        inputs: inputs.iter().map(|id| id.0).collect(),
        crossings,
        published,
        wants,
        params,
    }
}

impl Islands {
    /// Number of islands.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the graph has no island (nothing but external inputs).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members of island `k` (claim order), in topological order.
    pub fn members(&self, k: usize) -> Vec<NodeId> {
        self.members[k].iter().map(|&i| NodeId(i)).collect()
    }

    /// The island of a node; `None` for an external input.
    pub fn island_of(&self, id: NodeId) -> Option<usize> {
        self.of[id.0]
    }

    /// `(reader, node)` for every node that reads another island's value.
    pub fn crossings(&self) -> Vec<(NodeId, NodeId)> {
        self.crossings
            .iter()
            .map(|&(reader, node)| (NodeId(reader), NodeId(node)))
            .collect()
    }

    /// Whether a training step on external inputs of these dimensions
    /// forks: when the islands after the first — the ones a helper would
    /// take — are estimated at [`FORK_MIN_WORK`] multiply-adds or more.
    ///
    /// The estimate applies each trainable scalar of those islands once per
    /// position of the first external input it sees: a convolution kernel's
    /// (a rank-4 parameter's) at every pixel `N·H·W` of an image batch
    /// `[N, C, H, W]`, any other once per image; every parameter at every
    /// token `B·T` of a `[B, T]` window. That is exact for a same-padded
    /// convolution and a position-wise layer, and over-estimates a layer
    /// after a pool or an embedding's lookup: it only has to tell a step a
    /// spawn would dominate from one it would not.
    pub fn forks(&self, input_dims: &[usize]) -> bool {
        let (pixels, rows) = match *input_dims {
            [n, _, h, w] => (n * h * w, n),
            _ => (0, input_dims.iter().product()),
        };
        let helper = self.params.iter().skip(1);
        let work: usize = helper
            .map(|[kernels, rest]| kernels * pixels + rest * rows)
            .sum();
        self.len() > 1 && work >= FORK_MIN_WORK
    }

    /// The island each node runs in, counting the external inputs' part as
    /// part 0 and island `k` as part `k + 1`.
    pub(super) fn part_of(&self, i: usize) -> usize {
        self.of[i].map_or(0, |k| k + 1)
    }

    /// The members of every part: the external inputs, then the islands.
    pub(super) fn parts(&self) -> Vec<Vec<usize>> {
        std::iter::once(&self.inputs)
            .chain(&self.members)
            .cloned()
            .collect()
    }

    pub(super) fn published(&self) -> &[bool] {
        &self.published
    }

    pub(super) fn wants(&self) -> &[bool] {
        &self.wants
    }
}

/// A step gave up because another island of it panicked; the panic itself
/// surfaces from the step.
#[derive(Debug)]
pub(super) struct Abandoned;

/// The values that cross between the parts of one pass. A node another part
/// reads is published here once computed; a reader waits for that one node.
pub(super) struct Board<'a> {
    /// Which nodes are published (empty in a pass of the whole graph).
    published: &'a [bool],
    state: Mutex<Posted>,
    ready: Condvar,
}

struct Posted {
    values: Vec<Option<Tensor>>,
    /// A part of the step panicked: nothing more will be published.
    failed: bool,
    /// Readers asleep on the board: a post wakes them only if there are
    /// any (a wake-up is a system call).
    waiting: usize,
}

impl<'a> Board<'a> {
    pub(super) fn new(published: &'a [bool]) -> Self {
        Board {
            published,
            state: Mutex::new(Posted {
                values: vec![None; published.len()],
                failed: false,
                waiting: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn posted(&self) -> std::sync::MutexGuard<'_, Posted> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether another part reads node `i`'s value.
    pub(super) fn publishes(&self, i: usize) -> bool {
        self.published.get(i) == Some(&true)
    }

    /// Posts node `i`'s value for the parts that read it.
    pub(super) fn publish(&self, i: usize, value: &Tensor) {
        let mut posted = self.posted();
        posted.values[i] = Some(value.clone());
        if posted.waiting > 0 {
            self.ready.notify_all();
        }
    }

    /// Node `j`'s value, once its part has computed it.
    ///
    /// # Panics
    ///
    /// Panics if no other part computes `j` (a read against topological
    /// order).
    pub(super) fn wait(&self, j: usize) -> Result<Tensor, Abandoned> {
        assert!(self.publishes(j), "topo order violated");
        let mut posted = self.posted();
        loop {
            if posted.failed {
                return Err(Abandoned);
            }
            if let Some(value) = &posted.values[j] {
                return Ok(value.clone());
            }
            posted.waiting += 1;
            posted = self
                .ready
                .wait(posted)
                .unwrap_or_else(PoisonError::into_inner);
            posted.waiting -= 1;
        }
    }

    fn fail(&self) {
        let mut posted = self.posted();
        posted.failed = true;
        if posted.waiting > 0 {
            self.ready.notify_all();
        }
    }

    fn failed(&self) -> bool {
        self.posted().failed
    }
}

/// Marks the board failed if its thread unwinds, so that no reader waits
/// for a value that will never come.
struct FailOnPanic<'b, 'a>(&'b Board<'a>);

impl Drop for FailOnPanic<'_, '_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.fail();
        }
    }
}

thread_local! {
    /// The helper's scratch free list between steps, kept by the thread that
    /// lends it: a helper lives for one step, its buffers for many.
    static LENT: Cell<Vec<Vec<f32>>> = const { Cell::new(Vec::new()) };
}

/// Runs `parts` — islands in claim order — through `work` and returns
/// everything `work` returned; `work` is told whether it runs on the helper.
/// Under [`Forking::Never`] the caller runs every part; otherwise a scoped
/// helper thread joins in, both claiming parts until none is left — or,
/// under [`Forking::Always`], the caller claims only the first.
///
/// The two threads claim whole parts from one cursor. A part the helper has
/// not claimed by the time the caller runs out is the caller's, so a helper
/// that starts late costs its spawn and nothing more. A panic in either
/// thread surfaces from here, after the other has stopped.
pub(super) fn run<P: Send, T: Send>(
    parts: Vec<P>,
    fork: Forking,
    board: &Board<'_>,
    work: &(dyn Fn(P, bool) -> Result<Vec<T>, Abandoned> + Sync),
) -> Vec<T> {
    let queue: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    // Relaxed: the cursor only hands out indices; a part itself crosses
    // threads through its mutex.
    let cursor = AtomicUsize::new(0);
    let claim = |claims: usize, helper: bool| -> Result<Vec<T>, Abandoned> {
        let _fail = FailOnPanic(board);
        let mut done = Vec::new();
        for _ in 0..claims {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= queue.len() || board.failed() {
                break;
            }
            let part = queue[k]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            done.extend(work(part.expect("each part is claimed once"), helper)?);
        }
        Ok(done)
    };
    if fork == Forking::Never || queue.len() < 2 {
        return claim(usize::MAX, false).expect("no other thread to abandon the step");
    }
    thread::scope(|scope| {
        let lent = LENT.take();
        let helper = thread::Builder::new()
            .name(HELPER_THREAD.into())
            .spawn_scoped(scope, || {
                let own = scratch::swap_free_list(lent);
                let done = claim(usize::MAX, true);
                (done, scratch::swap_free_list(own))
            });
        let first = if fork == Forking::Always {
            1
        } else {
            usize::MAX
        };
        let mine = claim(first, false);
        let theirs = match helper.map(|h| h.join()) {
            Ok(Ok((theirs, lent))) => {
                LENT.set(lent);
                theirs
            }
            Ok(Err(panic)) => std::panic::resume_unwind(panic),
            Err(_) => Ok(Vec::new()),
        };
        let (Ok(mut mine), Ok(theirs)) = (mine, theirs) else {
            unreachable!("a step is abandoned only when a thread of it panicked");
        };
        mine.extend(theirs);
        // What neither thread claimed (a helper that could not start).
        mine.extend(claim(usize::MAX, false).expect("the helper has finished"));
        mine
    })
}
