//! The model graph IR.
//!
//! A [`GraphModel`] is an append-only DAG of named layer nodes. Because a
//! node's inputs must already exist when it is added, insertion order is a
//! valid topological order and cycles are impossible by construction.
//!
//! The graph is the unit Amalgam's model augmenter rewrites: synthetic
//! sub-network nodes are appended around the original nodes, and each node
//! carries a [`Provenance`] tag plus a sub-network id. **Provenance is a
//! client-side secret** — [`GraphModel::encode`] does not serialize it, so
//! the cloud-visible representation gives no hint of which branch is real.
//!
//! # Fused segments
//!
//! Training passes do not run every node on its own: chains of element-wise
//! nodes (`BatchNorm2d → Relu → Add → AvgPool2d` and its sub-chains) are found
//! once per graph and executed as one pass each — see `graph/segment.rs` for
//! the rule, what falls back to the layers and why no bit can move.
//!
//! # Islands
//!
//! A training step ([`GraphModel::train_step`]) does not run the graph as one
//! pass either. An *island* is a set of nodes joined by edges that carry
//! gradient: cut every edge into a node that
//! [cuts gradients](Layer::cuts_gradient) — a `Detach` — and every edge from
//! an external input, and each connected component left is an island. The
//! augmenter joins sub-networks only through `Detach` taps, so an augmented
//! model has one island per sub-network; a plain model, or the
//! `without_detach` ablation, is one. The plan ([`Islands`]) is found once
//! per graph, a pure function of it, like the segments. A step runs each
//! island's forward, its heads' seeds and its backward as one unit, an island
//! after those it reads (the largest ready one first); a node that reads
//! another island's value — a tap's `Detach` — waits for that one node.
//!
//! **Why the bits cannot move.** Every node runs the same code on the same
//! inputs in the same order within its island, and no gradient crosses an
//! island boundary: what a node sums from its consumers comes from its own
//! island, in the order it always did. So a step on two threads trains what a
//! step on one does, bit for bit, and both train what `forward` → seeds →
//! `zero_grad` → `backward` does.
//!
//! **When a step forks.** When the islands after the first — those a helper
//! would take — are estimated at [`FORK_MIN_WORK`] multiply-adds or more
//! ([`Islands::forks`]: a stated constant applied to the graph and the
//! input's dimensions, not a setting). The caller and one helper thread then
//! claim whole islands from one cursor; an island the helper has not claimed
//! when the caller runs out of work is the caller's, so a helper that starts
//! late, on a busy machine, costs its spawn and nothing more. Otherwise — a
//! plain model, a one-image job — the caller runs every island: the same
//! executor with no helper.
//!
//! **Weight gradients.** A layer with weight products (`Linear`, `Conv2d` on
//! every lowering and so `MaskedConv2d`, `MultiHeadSelfAttention`) splits
//! its backward into an input half — the gradient the next node down the
//! chain waits for — and a weight half — its parameter gradients, which
//! nothing in the step waits for ([`Layer::backward_input`],
//! [`Layer::backward_weights`]); the B/W split of zero-bubble pipeline
//! schedules, applied to the two threads of one step. In a step that forks,
//! once the helper has started, each such node's weight half goes to one
//! queue as soon as its input half has returned; a thread with no island
//! left to claim runs queued halves (islands first), sleeping on a condvar
//! that a new half or the step's end wakes — only when someone sleeps — and
//! the step returns when the queue is empty and no half is running. So the
//! caller carries input gradients down its island while the helper, its own
//! islands done, computes the caller's weight gradients. Before the helper
//! has started, and in a step that does not fork, every layer's backward
//! runs whole where it always did: one code path, no extra thread. A buffer
//! a half spends (its forward cache, what its input half kept, the output
//! gradient) goes back to the scratch arena of the thread whose island made
//! it; what the half takes for itself, it gives back where it ran.
//!
//! *Why no bit moves:* each half runs the products it ran inside `backward`,
//! on the same operands, with the same kernels, in the same order; the
//! input half writes nothing the weight half reads except what it hands over,
//! and the weight half writes only its node's parameter gradients, which
//! nothing else writes — each gradient keeps its one writer, and zeroing
//! happens before either half. *What a starved helper costs:* nothing beyond
//! its spawn — if it has not started when an input half returns, that
//! node's backward runs whole on the caller, so the caller never saves
//! halves up for a drain at the end; a helper that starts late still takes
//! whatever is queued then. Halves the helper runs cost it more than they
//! cost the caller (their operands were made on the other core), so the
//! critical path falls by less than the halves' share; `kernels-quick
//! --profile` shows each row's time on the helper.
//!
//! **The helper's lifetime.** The helper is a scoped thread named
//! [`HELPER_THREAD`], spawned by the step and joined before it returns; no
//! thread outlives a step, and a panic on the helper surfaces from the step.
//! Kernels still run on the thread that calls them, the helper's own, which
//! works from a scratch free list its caller keeps between steps; thread-local
//! test hooks (`tensor::gemm::force_route`) do not follow an island onto it.
//! [`forward`](GraphModel::forward) and [`backward`](GraphModel::backward) —
//! evaluation, gradient checks — run on the caller alone.

mod island;
mod segment;

pub use island::{Forking, Islands, FORK_MIN_WORK, HELPER_THREAD};

use crate::layer::{Layer, Mode, Param};
use crate::spec::LayerSpec;
use crate::NnError;
use amalgam_tensor::wire::{Reader, Writer};
use amalgam_tensor::{scratch, Tensor, TensorError};
use island::{Abandoned, Board, Deferred, WeightHalf};
use segment::{Plan, Role, Segment};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Identifier of a node within one [`GraphModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The node's index in insertion (= topological) order.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Whether a node belongs to the user's original model or was injected by
/// the augmenter. Never serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Part of the user's original model.
    Original,
    /// Injected synthetic noise structure.
    Synthetic,
    /// Unknown — e.g. a graph decoded from the wire (the cloud's view).
    Unknown,
}

/// One node of the graph.
#[derive(Debug, Clone)]
pub struct Node {
    name: String,
    layer: Box<dyn Layer>,
    inputs: Vec<NodeId>,
    provenance: Provenance,
    subnet: usize,
}

impl Node {
    /// The node's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer's type name.
    pub fn kind(&self) -> &'static str {
        self.layer.kind()
    }

    /// The node's input nodes.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The node's provenance tag.
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// The sub-network this node belongs to (0 = original by convention).
    pub fn subnet(&self) -> usize {
        self.subnet
    }

    /// The node's layer.
    pub fn layer(&self) -> &dyn Layer {
        self.layer.as_ref()
    }

    /// Mutable access to the node's layer.
    pub fn layer_mut(&mut self) -> &mut dyn Layer {
        self.layer.as_mut()
    }
}

/// What the executor spent on one node, or on one fused segment, since
/// profiling was switched on (see [`GraphModel::set_profiling`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeTiming {
    /// The node — or, for a segment that ran fused, its members in order.
    pub nodes: Vec<NodeId>,
    /// The dimensions of the (last) node's latest output.
    pub out_dims: Vec<usize>,
    /// Time inside `forward` calls.
    pub forward: Duration,
    /// Time inside `backward` calls: both halves of a layer that splits,
    /// wherever each ran.
    pub backward: Duration,
    /// The part of `forward` and `backward` spent on a training step's
    /// helper thread — its island's, and weight halves it ran for the
    /// caller's island (see [`GraphModel::train_step`]).
    pub on_helper: Duration,
    /// Whether its island last ran on a training step's helper thread: rows
    /// so marked ran beside the others.
    pub helper: bool,
}

impl NodeTiming {
    fn add_forward(&mut self, spent: Duration, helper: bool) {
        self.forward += spent;
        if helper {
            self.on_helper += spent;
        }
    }

    fn add_backward(&mut self, spent: Duration, helper: bool) {
        self.backward += spent;
        if helper {
            self.on_helper += spent;
        }
    }
}

/// How the training steps ran since profiling was switched on (see
/// [`GraphModel::profile_steps`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// Training steps ([`GraphModel::train_step`] calls).
    pub steps: usize,
    /// Steps a helper thread joined.
    pub forked: usize,
    /// Forked steps in which the helper ran an island or a weight half.
    pub helped: usize,
}

/// Per-node clocks; index = the node the time was spent at (a fused
/// segment's last member).
#[derive(Debug, Clone, Default)]
struct Profile {
    rows: Vec<NodeTiming>,
    steps: StepCounts,
}

/// A directed acyclic graph of layers with named nodes.
#[derive(Debug, Clone, Default)]
pub struct GraphModel {
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    /// The fused segments; found at the first pass after the graph changed.
    plan: Option<Plan>,
    /// The islands; found at the first step after the graph changed.
    islands: Option<Islands>,
    /// Test hook: run every node on its own.
    unfused: bool,
    /// Test hook: which steps fork.
    forking: Forking,
    profile: Option<Profile>,
}

impl GraphModel {
    /// An empty graph.
    pub fn new() -> Self {
        GraphModel::default()
    }

    /// Adds an external-input placeholder node.
    pub fn input(&mut self, name: &str) -> NodeId {
        let id = self.add_layer(name, crate::layers::Input::new(), &[]);
        self.inputs.push(id);
        id
    }

    /// Adds a layer node fed by `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or any input id is out of range.
    pub fn add_layer<L: Layer + 'static>(
        &mut self,
        name: &str,
        layer: L,
        inputs: &[NodeId],
    ) -> NodeId {
        self.add_boxed(name, Box::new(layer), inputs)
    }

    /// Adds an already-boxed layer node fed by `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or any input id is out of range.
    pub fn add_boxed(&mut self, name: &str, layer: Box<dyn Layer>, inputs: &[NodeId]) -> NodeId {
        assert!(
            self.nodes.iter().all(|n| n.name != name),
            "duplicate node name '{name}'"
        );
        for id in inputs {
            assert!(
                id.0 < self.nodes.len(),
                "input NodeId {} does not exist yet",
                id.0
            );
        }
        self.plan = None;
        self.islands = None;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_owned(),
            layer,
            inputs: inputs.to_vec(),
            provenance: Provenance::Original,
            subnet: 0,
        });
        id
    }

    /// Declares the single model output.
    pub fn set_output(&mut self, id: NodeId) {
        self.set_outputs(&[id]);
    }

    /// Declares multiple model outputs (one per sub-network head).
    pub fn set_outputs(&mut self, ids: &[NodeId]) {
        self.plan = None;
        self.islands = None;
        self.outputs = ids.to_vec();
    }

    /// The declared outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The external-input placeholder nodes.
    pub fn input_ids(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Tags a node's provenance (client-side only).
    pub fn set_provenance(&mut self, id: NodeId, p: Provenance) {
        self.nodes[id.0].provenance = p;
    }

    /// Assigns a node to a sub-network.
    pub fn set_subnet(&mut self, id: NodeId, subnet: usize) {
        self.nodes[id.0].subnet = subnet;
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// The segment plan, found if the graph changed since the last pass.
    fn segment_plan(&mut self) -> &mut Plan {
        self.plan.get_or_insert_with(|| match self.unfused {
            true => Plan::unfused(self.nodes.len()),
            false => segment::find(&self.nodes, &self.inputs, &self.outputs),
        })
    }

    /// The island plan, found if the graph changed since the last pass.
    fn island_plan(&mut self) -> &Islands {
        self.islands
            .get_or_insert_with(|| island::find(&self.nodes, &self.inputs))
    }

    /// The island plan of the graph — a pure function of it (see the module
    /// docs, "Islands").
    #[doc(hidden)]
    pub fn islands(&self) -> Islands {
        island::find(&self.nodes, &self.inputs)
    }

    /// Runs the graph on the given external inputs, returning one tensor per
    /// declared output.
    ///
    /// # Panics
    ///
    /// Panics if the number of externals differs from the number of input
    /// nodes, or no outputs were declared.
    pub fn forward(&mut self, externals: &[&Tensor], mode: Mode) -> Vec<Tensor> {
        self.check_arity(externals);
        let (mut part, roles, inputs, outputs) = self.whole();
        let board = Board::new(&[]);
        let pass = Pass {
            roles,
            inputs,
            externals,
            mode,
            board: &board,
        };
        part.forward(&pass, false)
            .expect("a pass of the whole graph waits for nothing");
        // Every consumer has run, so outputs are moved out (a node declared
        // as an output more than once is shared between its slots). The
        // activations left behind are dropped here: a layer that needs one
        // for backward holds a handle of its own on the same storage.
        (0..outputs.len())
            .map(|h| part.output(outputs, h))
            .collect()
    }

    /// Convenience for single-input single-output graphs.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not have exactly one input and one output.
    pub fn forward_one(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(
            self.inputs.len(),
            1,
            "forward_one requires exactly one input"
        );
        assert_eq!(
            self.outputs.len(),
            1,
            "forward_one requires exactly one output"
        );
        self.forward(&[x], mode).remove(0)
    }

    fn check_arity(&self, externals: &[&Tensor]) {
        assert_eq!(
            externals.len(),
            self.inputs.len(),
            "external input arity mismatch"
        );
        assert!(!self.outputs.is_empty(), "no outputs declared");
    }

    /// Back-propagates one seed gradient per declared output, accumulating
    /// parameter gradients. Must follow a matching [`forward`](Self::forward).
    ///
    /// Backward is demand-driven: a gradient is computed only where it can
    /// still reach a parameter. A node wants one when it owns a parameter,
    /// or passes gradients on (it does not [cut](Layer::cuts_gradient) them)
    /// to an input that wants one. Each layer is told which of its inputs
    /// want one (see [`Layer::backward`]), and a node that no parameter lies
    /// behind — an external input, a [`Detach`](crate::layers::Detach) tap
    /// and whatever feeds only those — is not run at all.
    ///
    /// # Panics
    ///
    /// Panics if the seed count differs from the output count.
    pub fn backward(&mut self, seeds: &[Tensor]) {
        let wants = self.island_plan().wants().to_vec();
        self.backward_where(seeds, &wants);
    }

    /// [`backward`](Self::backward) with the demand analysis switched off —
    /// every layer is asked for every input gradient, and every node a
    /// gradient reaches is run (see `gradcheck::backward_all_demanded`).
    pub(crate) fn backward_all_demanded(&mut self, seeds: &[Tensor]) {
        let wants = vec![true; self.nodes.len()];
        self.backward_where(seeds, &wants);
    }

    /// Back-propagation reaching the nodes `wants` marks.
    fn backward_where(&mut self, seeds: &[Tensor], wants: &[bool]) {
        assert_eq!(seeds.len(), self.outputs.len(), "seed arity mismatch");
        let (mut part, roles, _, outputs) = self.whole();
        let seeds = outputs.iter().map(|id| id.0).zip(seeds.iter().cloned());
        part.backward(roles, wants, seeds.collect(), false, None);
    }

    /// The whole graph lent out as one part, beside the segment roles and the
    /// external-input and output nodes a pass of it reads.
    fn whole(&mut self) -> (Part<'_>, &[Role], &[NodeId], &[NodeId]) {
        self.segment_plan();
        let GraphModel {
            nodes,
            inputs,
            outputs,
            plan,
            profile,
            ..
        } = self;
        let plan = plan.as_mut().expect("found above");
        let all = vec![(0..nodes.len()).collect()];
        let mut parts = Part::split(nodes, &mut plan.segments, profile, all, |_| 0);
        (parts.pop().expect("one part"), &plan.roles, inputs, outputs)
    }

    /// One training step: forward, one gradient seed per head, zeroed
    /// parameter gradients, and backward — island by island (see the module
    /// docs, "Islands"), on the caller and, when the step is big enough, one
    /// helper thread for the step's length, which also takes weight halves
    /// off the caller's chain (module docs, "Weight gradients"). Returns once
    /// every weight half has run.
    ///
    /// `seed(h, output)` scores head `h`'s output: it returns the seed
    /// gradient backward starts from and what the caller keeps of the head
    /// (the loss, say). It is called on whichever thread runs the head's
    /// island, in head order within an island. Returns one `R` per head. The
    /// parameters' gradients are then those of
    /// [`forward`](Self::forward) → seeds → [`zero_grad`](Self::zero_grad) →
    /// [`backward`](Self::backward), bit for bit.
    ///
    /// # Panics
    ///
    /// As [`forward`](Self::forward), or if `seed` panics (on either
    /// thread: the panic surfaces here).
    pub fn train_step<R: Send>(
        &mut self,
        externals: &[&Tensor],
        seed: &(dyn Fn(usize, &Tensor) -> (Tensor, R) + Sync),
    ) -> Vec<R> {
        self.check_arity(externals);
        self.segment_plan();
        self.island_plan();
        let GraphModel {
            nodes,
            inputs,
            outputs,
            plan,
            islands,
            profile,
            forking,
            ..
        } = self;
        let (plan, islands) = (
            plan.as_mut().expect("found"),
            islands.as_ref().expect("found"),
        );
        let board = Board::new(islands.published());
        let pass = Pass {
            roles: &plan.roles,
            inputs,
            externals,
            mode: Mode::Train,
            board: &board,
        };
        let mut parts = Part::split(nodes, &mut plan.segments, profile, islands.parts(), |i| {
            islands.part_of(i)
        });
        let deferred = Deferred::new(parts.len() - 1);
        let wants = islands.wants();
        // One lifetime for the parts and the queue their halves go to (a
        // closure's annotated parameter would take any).
        let step = |part, helper: bool| {
            let mut part: Part<'_> = part;
            part.forward(&pass, helper)?;
            let mut seeds = Vec::new();
            let mut kept = Vec::new();
            for (h, id) in outputs.iter().enumerate() {
                if part.nodes[id.0].is_some() {
                    let (grad, r) = seed(h, &part.output(outputs, h));
                    seeds.push((id.0, grad));
                    kept.push((h, r));
                }
            }
            // The activations are dropped before backward, as after a
            // `forward`.
            part.values.clear();
            for node in part.nodes.iter_mut().flatten() {
                node.layer
                    .params_mut()
                    .into_iter()
                    .for_each(Param::zero_grad);
            }
            part.backward(pass.roles, wants, seeds, helper, Some(&deferred));
            Ok(kept)
        };
        // The external inputs, on the caller, before any island reads them.
        let mut kept = step(parts.remove(0), false).expect("the inputs wait for nothing");
        let forks = match *forking {
            Forking::Rule if islands.forks(externals.first().map_or(&[], |x| x.dims())) => {
                Forking::Rule
            }
            Forking::Rule => Forking::Never,
            other => other,
        };
        let (islands_kept, ran) = island::run(parts, forks, &board, &deferred, &step);
        drop(deferred);
        kept.extend(islands_kept);
        if let Some(profile) = profile {
            profile.steps.steps += 1;
            profile.steps.forked += usize::from(ran.forked);
            profile.steps.helped += usize::from(ran.helped);
        }
        kept.sort_by_key(|&(h, _)| h);
        kept.into_iter().map(|(_, r)| r).collect()
    }

    /// Test hook, not an option: with `false`, every node runs on its own —
    /// the execution the fused segments are held to, bit for bit.
    #[doc(hidden)]
    pub fn set_fusion_for_tests(&mut self, on: bool) {
        self.clear_caches();
        self.unfused = !on;
        self.plan = None;
    }

    /// Test hook, not an option: which training steps fork —
    /// [`Forking::Never`] runs every step on the caller, the execution a
    /// forked step is held to bit for bit; [`Forking::Always`] forks every
    /// step and leaves all islands but the first to the helper.
    #[doc(hidden)]
    pub fn set_forking_for_tests(&mut self, forking: Forking) {
        self.forking = forking;
    }

    /// Switches the per-node clocks on (discarding earlier readings) or off.
    /// Off — the default — costs one branch per node and pass; on, two clock
    /// reads per layer call.
    pub fn set_profiling(&mut self, on: bool) {
        self.profile = on.then(Profile::default);
    }

    /// What every node that ran since [`set_profiling`](Self::set_profiling)
    /// cost, in topological order. A segment that ran fused is one row naming
    /// its members.
    pub fn profile(&self) -> Vec<NodeTiming> {
        let rows = self.profile.iter().flat_map(|p| &p.rows);
        rows.filter(|row| !row.nodes.is_empty()).cloned().collect()
    }

    /// How the training steps since [`set_profiling`](Self::set_profiling)
    /// ran: how many forked, and in how many the helper ran anything.
    pub fn profile_steps(&self) -> StepCounts {
        self.profile
            .as_ref()
            .map_or_else(StepCounts::default, |p| p.steps)
    }

    /// Drops all cached activations.
    pub fn clear_caches(&mut self) {
        for n in &mut self.nodes {
            n.layer.clear_cache();
        }
        for segment in self.plan.iter_mut().flat_map(|plan| &mut plan.segments) {
            segment.clear_cache();
        }
    }

    // ------------------------------------------------------------------
    // Parameters
    // ------------------------------------------------------------------

    /// All trainable parameters, in topological node order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.nodes
            .iter_mut()
            .flat_map(|n| n.layer.params_mut())
            .collect()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.nodes.iter().map(|n| n.layer.param_count()).sum()
    }

    /// Number of trainable scalars belonging to one sub-network.
    pub fn param_count_subnet(&self, subnet: usize) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.subnet == subnet)
            .map(|n| n.layer.param_count())
            .sum()
    }

    /// Named snapshot of all parameter values (`node.p<i>` paths).
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for n in &self.nodes {
            for (i, p) in n.layer.params().iter().enumerate() {
                out.push((format!("{}.p{}", n.name, i), p.value.clone()));
            }
        }
        out
    }

    /// Loads parameter values by path, as produced by
    /// [`state_dict`](Self::state_dict).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingParam`] for unknown paths and
    /// [`NnError::ParamShapeMismatch`] on shape disagreement.
    pub fn load_state_dict(&mut self, entries: &[(String, Tensor)]) -> Result<(), NnError> {
        let mut index: HashMap<String, (usize, usize)> = HashMap::new();
        for (ni, n) in self.nodes.iter().enumerate() {
            for pi in 0..n.layer.params().len() {
                index.insert(format!("{}.p{}", n.name, pi), (ni, pi));
            }
        }
        for (path, value) in entries {
            let &(ni, pi) = index
                .get(path)
                .ok_or_else(|| NnError::MissingParam { path: path.clone() })?;
            let params = self.nodes[ni].layer.params_mut();
            let p = params.into_iter().nth(pi).expect("indexed param exists");
            if p.value.dims() != value.dims() {
                return Err(NnError::ParamShapeMismatch { path: path.clone() });
            }
            p.value = value.clone();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Serialization (cloud-visible representation)
    // ------------------------------------------------------------------

    /// Encodes the graph structure and parameters — **without provenance or
    /// sub-network tags** — into a wire buffer.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.nodes.len() as u32);
        for n in &self.nodes {
            w.put_str(&n.name);
            w.put_usize_list(&n.inputs.iter().map(|id| id.0).collect::<Vec<_>>());
            n.layer.spec().encode(w);
        }
        w.put_usize_list(&self.inputs.iter().map(|id| id.0).collect::<Vec<_>>());
        w.put_usize_list(&self.outputs.iter().map(|id| id.0).collect::<Vec<_>>());
    }

    /// Decodes a graph written by [`encode`](Self::encode). All nodes carry
    /// [`Provenance::Unknown`] — the wire format deliberately cannot express
    /// which branch is original.
    ///
    /// # Errors
    ///
    /// Returns a wire or layer-tag error on malformed input (a repeated node
    /// name, or a layer spec its constructor would refuse, included), or
    /// [`NnError::UnknownNode`] if edges reference out-of-range nodes.
    pub fn decode(r: &mut Reader) -> Result<GraphModel, NnError> {
        let count = r.get_u32()? as usize;
        let mut g = GraphModel::new();
        for _ in 0..count {
            let name = r.get_str()?;
            if g.nodes.iter().any(|n| n.name == name) {
                let context = "duplicate node name";
                return Err(NnError::Wire(TensorError::MalformedWire { context }));
            }
            let input_idx = r.get_usize_list()?;
            let spec = LayerSpec::decode(r)?;
            for &i in &input_idx {
                if i >= g.nodes.len() {
                    return Err(NnError::UnknownNode { id: i });
                }
            }
            let inputs: Vec<NodeId> = input_idx.into_iter().map(NodeId).collect();
            let id = g.add_boxed(&name, spec.build(), &inputs);
            g.set_provenance(id, Provenance::Unknown);
        }
        let input_idx = r.get_usize_list()?;
        let output_idx = r.get_usize_list()?;
        for &i in input_idx.iter().chain(&output_idx) {
            if i >= g.nodes.len() {
                return Err(NnError::UnknownNode { id: i });
            }
        }
        g.inputs = input_idx.into_iter().map(NodeId).collect();
        g.outputs = output_idx.into_iter().map(NodeId).collect();
        Ok(g)
    }

    /// Serializes to a fresh byte buffer (see [`encode`](Self::encode)).
    pub fn to_bytes(&self) -> bytes::Bytes {
        // Parameters are nearly all of the encoding; names, edges and
        // hyper-parameters fit the per-node allowance.
        let mut w = Writer::with_capacity(4 * self.param_count() + 256 * self.nodes.len());
        self.encode(&mut w);
        w.finish()
    }

    /// Deserializes from bytes (see [`decode`](Self::decode)).
    ///
    /// # Errors
    ///
    /// As for [`decode`](Self::decode).
    pub fn from_bytes(buf: bytes::Bytes) -> Result<GraphModel, NnError> {
        GraphModel::decode(&mut Reader::new(buf))
    }
}

/// What every part of one pass shares.
struct Pass<'a> {
    roles: &'a [Role],
    /// The external-input nodes, in `externals`' order.
    inputs: &'a [NodeId],
    externals: &'a [&'a Tensor],
    mode: Mode,
    /// The values that cross between parts.
    board: &'a Board<'a>,
}

/// The nodes one thread executes in a pass, borrowed out of the graph: all
/// of them in [`GraphModel::forward`] and [`GraphModel::backward`]; the
/// external inputs, or one island, in [`GraphModel::train_step`].
struct Part<'g> {
    /// The members, in topological order.
    members: Vec<usize>,
    /// `nodes[i]`: node `i`, if it is a member.
    nodes: Vec<Option<&'g mut Node>>,
    /// `segments[s]`: segment `s`, if its members are.
    segments: Vec<Option<&'g mut Segment>>,
    /// `rows[i]`: the profile row at node `i`, if it is a member and the
    /// clocks are on.
    rows: Vec<Option<&'g mut NodeTiming>>,
    /// The outputs computed so far, and those read from other parts.
    values: Vec<Option<Tensor>>,
}

impl<'g> Part<'g> {
    /// Lends the graph out as one part per `members` list; node `i` (and
    /// its profile row, and a segment it begins) goes to part `owner(i)`.
    fn split(
        nodes: &'g mut [Node],
        segments: &'g mut [Segment],
        profile: &'g mut Option<Profile>,
        members: Vec<Vec<usize>>,
        owner: impl Fn(usize) -> usize,
    ) -> Vec<Part<'g>> {
        let n = nodes.len();
        fn none<T>(len: usize) -> Vec<Option<T>> {
            std::iter::repeat_with(|| None).take(len).collect()
        }
        let mut parts: Vec<Part<'g>> = members
            .into_iter()
            .map(|members| Part {
                members,
                nodes: none(n),
                segments: none(segments.len()),
                rows: Vec::new(),
                values: vec![None; n],
            })
            .collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            parts[owner(i)].nodes[i] = Some(node);
        }
        for (s, segment) in segments.iter_mut().enumerate() {
            let first = segment.nodes()[0];
            parts[owner(first)].segments[s] = Some(segment);
        }
        if let Some(profile) = profile {
            profile.rows.resize(n, NodeTiming::default());
            for part in &mut parts {
                part.rows = none(n);
            }
            for (i, row) in profile.rows.iter_mut().enumerate() {
                parts[owner(i)].rows[i] = Some(row);
            }
        }
        parts
    }

    /// Head `h`'s output, moved out unless a later head shares its node.
    fn output(&mut self, outputs: &[NodeId], h: usize) -> Tensor {
        let id = outputs[h];
        let value = &mut self.values[id.0];
        let out = if outputs[h + 1..].contains(&id) {
            value.clone()
        } else {
            value.take()
        };
        out.expect("output not computed")
    }

    /// The profile row at node `at`, for what ran there — the fused
    /// `members`, or the node — and the thread it ran on; `None` while the
    /// clocks are off.
    fn row<'r>(
        rows: &'r mut [Option<&'g mut NodeTiming>],
        at: usize,
        members: Option<&[usize]>,
        helper: bool,
    ) -> Option<&'r mut NodeTiming> {
        let row = rows.get_mut(at)?.as_deref_mut()?;
        let members = members.unwrap_or(std::slice::from_ref(&at));
        if row.nodes.len() != members.len() {
            row.nodes = members.iter().map(|&i| NodeId(i)).collect();
        }
        row.helper = helper;
        Some(row)
    }

    /// The forward pass over the members; a value another part reads is
    /// published as soon as it exists.
    fn forward(&mut self, pass: &Pass<'_>, helper: bool) -> Result<(), Abandoned> {
        // The segments that run fused in this pass, decided at their first
        // member (the input's dimensions are known by then).
        let mut fused = vec![false; self.segments.len()];
        for &i in &self.members {
            // What the node reads from other parts is waited for first, off
            // its clock; a fused segment reads what its members do.
            let external = pass.inputs.iter().position(|id| id.0 == i);
            if external.is_none() {
                let node = self.nodes[i].as_deref().expect("a member");
                for id in &node.inputs {
                    if self.nodes[id.0].is_none() && self.values[id.0].is_none() {
                        self.values[id.0] = Some(pass.board.wait(id.0)?);
                    }
                }
            }
            let start = (!self.rows.is_empty()).then(Instant::now);
            let role = pass.roles[i];
            if let Role::First(s) = role {
                let segment = self.segments[s].as_deref_mut().expect("a member's segment");
                segment.clear_cache();
                let input = self.values[segment.input()].as_ref();
                let dims = input.expect("topo order violated").dims();
                fused[s] = pass.mode == Mode::Train && segment.fuses(dims);
            }
            // A fused segment runs where its last member stands; its other
            // members leave no value, and nobody but the next member reads
            // them.
            let (value, members) = match role {
                Role::Last(s) if fused[s] => {
                    let segment = self.segments[s].as_deref_mut().expect("a member's segment");
                    let first = self.nodes[segment.nodes()[0]].as_deref_mut();
                    let out = segment.forward(first.expect("a member"), &self.values);
                    (Some(out), Some(segment.nodes()))
                }
                Role::First(s) | Role::Inner(s) if fused[s] => (None, None),
                _ => {
                    let node = self.nodes[i].as_deref_mut().expect("a member");
                    let out = match external {
                        Some(k) => node.layer.forward(&[pass.externals[k]], pass.mode),
                        None => {
                            // Earlier activations are borrowed in place:
                            // `values` is only written once the layer has
                            // returned.
                            let refs: Vec<&Tensor> = node
                                .inputs
                                .iter()
                                .map(|id| self.values[id.0].as_ref().expect("topo order violated"))
                                .collect();
                            node.layer.forward(&refs, pass.mode)
                        }
                    };
                    (Some(out), None)
                }
            };
            if let Some(out) = &value {
                if pass.board.publishes(i) {
                    pass.board.publish(i, out);
                }
                let row = Self::row(&mut self.rows, i, members, helper);
                if let (Some(start), Some(row)) = (start, row) {
                    row.add_forward(start.elapsed(), helper);
                    row.out_dims = out.dims().to_vec();
                }
            }
            self.values[i] = value;
        }
        Ok(())
    }

    /// Back-propagation over the members from `(node, seed)` pairs, reaching
    /// the nodes `wants` marks (see [`GraphModel::backward`]). No gradient
    /// leaves the part: an edge that would carry one joins the two nodes'
    /// islands. Where `deferred` is open, a layer that splits its backward
    /// runs the input half here and queues the weight half there; otherwise
    /// its backward runs whole.
    fn backward(
        &mut self,
        roles: &[Role],
        wants: &[bool],
        seeds: Vec<(usize, Tensor)>,
        helper: bool,
        deferred: Option<&Deferred<'g>>,
    ) {
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = vec![None; n];
        let accumulate = |slot: &mut Option<Tensor>, g: Tensor| match slot {
            Some(acc) => acc.add_assign(&g),
            None => *slot = Some(g),
        };
        for (id, seed) in seeds {
            if wants[id] {
                accumulate(&mut grads[id], seed);
            }
        }
        // A fused segment computes its members' input gradients where its
        // last member stands, and each is added where the member that owes it
        // stands: a node fed by several consumers sums them in the order it
        // always did.
        let mut owed: Vec<Option<(usize, Tensor)>> = vec![None; n];
        let mut demand = Vec::new();
        for &i in self.members.iter().rev() {
            let start = (!self.rows.is_empty()).then(Instant::now);
            let pending = match roles[i] {
                Role::Last(s) => self.segments[s].as_deref_mut().filter(|s| s.is_pending()),
                _ => None,
            };
            if let Some(segment) = pending {
                match grads[i].take() {
                    Some(g) => {
                        let first = self.nodes[segment.nodes()[0]].as_deref_mut();
                        let first = first.expect("a member");
                        for (member, node, gi) in segment.backward(first, &g, wants) {
                            owed[member] = Some((node, gi));
                        }
                        scratch::give_tensor(g);
                    }
                    None => segment.clear_cache(),
                }
                let row = Self::row(&mut self.rows, i, Some(segment.nodes()), helper);
                if let (Some(start), Some(row)) = (start, row) {
                    row.add_backward(start.elapsed(), helper);
                }
            }
            if let Some((node, gi)) = owed[i].take() {
                accumulate(&mut grads[node], gi);
            }
            let node = self.nodes[i].as_deref_mut().expect("a member");
            // (An external input has nothing upstream, whoever demanded it.)
            let Some(g) = grads[i].take().filter(|_| !node.inputs.is_empty()) else {
                node.layer.clear_cache();
                continue;
            };
            demand.clear();
            demand.extend(node.inputs.iter().map(|id| wants[id.0]));
            // Split only where a queue is open to take the weight half.
            let queue = deferred.filter(|queue| queue.open());
            let (input_grads, split) = match queue {
                Some(_) => node.layer.backward_input(&g, &demand),
                None => (node.layer.backward(&g, &demand), false),
            };
            assert_eq!(
                input_grads.len(),
                demand.len(),
                "backward arity mismatch at node {i}"
            );
            for ((gi, id), &demanded) in input_grads.into_iter().zip(&node.inputs).zip(&demand) {
                if let Some(gi) = gi {
                    debug_assert!(demanded, "node {i} returned a gradient nobody asked for");
                    accumulate(&mut grads[id.0], gi);
                }
            }
            if let (Some(start), Some(row)) = (start, Self::row(&mut self.rows, i, None, helper)) {
                row.add_backward(start.elapsed(), helper);
            }
            match queue {
                Some(queue) if split => queue.push(WeightHalf {
                    node: self.nodes[i].take().expect("a member"),
                    grad: g,
                    row: self.rows.get_mut(i).and_then(Option::take),
                    owner: helper,
                }),
                // A consumed gradient is the size of an activation: recycled,
                // it serves the next step's scratch takes (unless it is
                // shared — a seed the caller still holds, one arm of an
                // `Add`'s fan-out).
                _ => scratch::give_tensor(g),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Add, Detach, Linear, Relu};
    use amalgam_tensor::Rng;

    fn tiny_mlp(rng: &mut Rng) -> GraphModel {
        let mut g = GraphModel::new();
        let x = g.input("x");
        let h = g.add_layer("fc1", Linear::new(3, 5, true, rng), &[x]);
        let h = g.add_layer("act", Relu::new(), &[h]);
        let y = g.add_layer("fc2", Linear::new(5, 2, true, rng), &[h]);
        g.set_output(y);
        g
    }

    #[test]
    fn forward_shapes_and_param_count() {
        let mut rng = Rng::seed_from(0);
        let mut g = tiny_mlp(&mut rng);
        assert_eq!(g.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
        let y = g.forward_one(&Tensor::zeros(&[4, 3]), Mode::Eval);
        assert_eq!(y.dims(), &[4, 2]);
    }

    #[test]
    fn backward_accumulates_fanout() {
        // y = x + x via Add on the same node: dy/dx = 2.
        let mut g = GraphModel::new();
        let x = g.input("x");
        let y = g.add_layer("sum", Add::new(), &[x, x]);
        g.set_output(y);
        g.forward_one(&Tensor::ones(&[2]), Mode::Train);
        g.backward(&[Tensor::ones(&[2])]);
        // No params, but the graph must not panic and must route fan-in.
    }

    #[test]
    fn detached_branch_gets_no_gradient() {
        // x -> fc -> out1 ; x -> fc -> detach -> fc2 -> out2.
        // fc's gradient must come only from out1's seed.
        let mut rng = Rng::seed_from(1);
        let mut g = GraphModel::new();
        let x = g.input("x");
        let h = g.add_layer("fc", Linear::new(2, 2, false, &mut rng), &[x]);
        let d = g.add_layer("stop", Detach::new(), &[h]);
        let z = g.add_layer("fc2", Linear::new(2, 2, false, &mut rng), &[d]);
        g.set_outputs(&[h, z]);

        let x_val = Tensor::ones(&[1, 2]);
        g.forward(&[&x_val], Mode::Train);
        g.zero_grad();
        // Zero seed on out1, big seed on out2: fc must receive NO gradient.
        g.backward(&[Tensor::zeros(&[1, 2]), Tensor::full(&[1, 2], 100.0)]);
        let fc_id = g.node_by_name("fc").unwrap();
        let fc_grad_sum: f32 = g
            .node(fc_id)
            .layer()
            .params()
            .iter()
            .map(|p| p.grad.norm_sq())
            .sum();
        assert_eq!(fc_grad_sum, 0.0, "detach leaked gradient into fc");
        // …while fc2 does receive gradient.
        let fc2_id = g.node_by_name("fc2").unwrap();
        let fc2_grad: f32 = g
            .node(fc2_id)
            .layer()
            .params()
            .iter()
            .map(|p| p.grad.norm_sq())
            .sum();
        assert!(fc2_grad > 0.0);
    }

    #[test]
    fn state_dict_roundtrip() {
        let mut rng = Rng::seed_from(2);
        let g = tiny_mlp(&mut rng);
        let sd = g.state_dict();
        assert_eq!(sd.len(), 4); // two Linear layers × (w, b)
        let mut g2 = tiny_mlp(&mut rng); // different init
        g2.load_state_dict(&sd).unwrap();
        assert_eq!(g2.state_dict()[0].1.data(), sd[0].1.data());
    }

    #[test]
    fn load_state_dict_rejects_unknown_path() {
        let mut rng = Rng::seed_from(3);
        let mut g = tiny_mlp(&mut rng);
        let err = g
            .load_state_dict(&[("nope.p0".into(), Tensor::zeros(&[1]))])
            .unwrap_err();
        assert!(matches!(err, NnError::MissingParam { .. }));
    }

    #[test]
    fn load_state_dict_rejects_bad_shape() {
        let mut rng = Rng::seed_from(4);
        let mut g = tiny_mlp(&mut rng);
        let err = g
            .load_state_dict(&[("fc1.p0".into(), Tensor::zeros(&[1, 1]))])
            .unwrap_err();
        assert!(matches!(err, NnError::ParamShapeMismatch { .. }));
    }

    #[test]
    fn wire_roundtrip_preserves_behaviour_and_hides_provenance() {
        let mut rng = Rng::seed_from(5);
        let mut g = tiny_mlp(&mut rng);
        let node1 = g.node_by_name("fc1").unwrap();
        g.set_provenance(node1, Provenance::Original);
        let x = Tensor::randn(&[3, 3], &mut rng);
        let want = g.forward_one(&x, Mode::Eval);

        let mut back = GraphModel::from_bytes(g.to_bytes()).unwrap();
        let got = back.forward_one(&x, Mode::Eval);
        assert!(got.approx_eq(&want, 0.0));
        // The decoded graph must not reveal provenance.
        for id in back.node_ids() {
            assert_eq!(back.node(id).provenance(), Provenance::Unknown);
        }
    }

    #[test]
    fn multi_input_graph_routes_externals_in_order() {
        let mut rng = Rng::seed_from(7);
        let mut g = GraphModel::new();
        let a = g.input("a");
        let b = g.input("b");
        let fa = g.add_layer("fa", Linear::new(2, 3, false, &mut rng), &[a]);
        let fb = g.add_layer("fb", Linear::new(2, 3, false, &mut rng), &[b]);
        let y = g.add_layer("sum", Add::new(), &[fa, fb]);
        g.set_output(y);
        let xa = Tensor::ones(&[1, 2]);
        let xb = Tensor::zeros(&[1, 2]);
        let y1 = g.forward(&[&xa, &xb], Mode::Eval)[0].clone();
        let y2 = g.forward(&[&xb, &xa], Mode::Eval)[0].clone();
        // Swapping externals must change the result (inputs are positional).
        assert!(!y1.approx_eq(&y2, 1e-6) || y1.norm_sq() == 0.0);
        // And backward through both branches accumulates both grads.
        g.forward(&[&xa, &xb], Mode::Train);
        g.zero_grad();
        g.backward(&[Tensor::ones(&[1, 3])]);
        for name in ["fa", "fb"] {
            let id = g.node_by_name(name).unwrap();
            let gn: f32 = g
                .node(id)
                .layer()
                .params()
                .iter()
                .map(|p| p.grad.norm_sq())
                .sum();
            assert!(gn >= 0.0, "{name} missing grad slot");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut rng = Rng::seed_from(6);
        let mut g = GraphModel::new();
        let x = g.input("x");
        g.add_layer("a", Linear::new(1, 1, false, &mut rng), &[x]);
        g.add_layer("a", Linear::new(1, 1, false, &mut rng), &[x]);
    }
}
