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

mod segment;

use crate::layer::{Layer, Mode, Param};
use crate::spec::LayerSpec;
use crate::NnError;
use amalgam_tensor::wire::{Reader, Writer};
use amalgam_tensor::{scratch, Tensor, TensorError};
use segment::{Plan, Role};
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
    /// Time inside `backward` calls.
    pub backward: Duration,
}

/// Per-node clocks; index = the node the time was spent at (a fused
/// segment's last member).
#[derive(Debug, Clone, Default)]
struct Profile {
    rows: Vec<NodeTiming>,
}

/// A directed acyclic graph of layers with named nodes.
#[derive(Debug, Clone, Default)]
pub struct GraphModel {
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    /// The fused segments; found at the first pass after the graph changed.
    plan: Option<Plan>,
    /// Test hook: run every node on its own.
    unfused: bool,
    profile: Option<Profile>,
}

impl Profile {
    /// The row of what ran at node `at`: the fused `members`, or the node.
    fn row(&mut self, at: usize, members: Option<&[usize]>) -> &mut NodeTiming {
        if self.rows.len() <= at {
            self.rows.resize(at + 1, NodeTiming::default());
        }
        let row = &mut self.rows[at];
        let members = members.unwrap_or(std::slice::from_ref(&at));
        if row.nodes.len() != members.len() {
            row.nodes = members.iter().map(|&i| NodeId(i)).collect();
        }
        row
    }
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

    /// Runs the graph on the given external inputs, returning one tensor per
    /// declared output.
    ///
    /// # Panics
    ///
    /// Panics if the number of externals differs from the number of input
    /// nodes, or no outputs were declared.
    pub fn forward(&mut self, externals: &[&Tensor], mode: Mode) -> Vec<Tensor> {
        assert_eq!(
            externals.len(),
            self.inputs.len(),
            "external input arity mismatch"
        );
        assert!(!self.outputs.is_empty(), "no outputs declared");
        let mut values: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        let plan = self.plan.get_or_insert_with(|| match self.unfused {
            true => Plan::unfused(self.nodes.len()),
            false => segment::find(&self.nodes, &self.outputs),
        });
        // The segments that run fused in this pass, decided at their first
        // member (the input's dimensions are known by then).
        let mut fused = vec![false; plan.segments.len()];
        for i in 0..self.nodes.len() {
            let start = self.profile.as_ref().map(|_| Instant::now());
            let role = plan.roles[i];
            if let Role::First(s) = role {
                let segment = &mut plan.segments[s];
                segment.clear_cache();
                let input = values[segment.input()].as_ref();
                let dims = input.expect("topo order violated").dims();
                fused[s] = mode == Mode::Train && segment.fuses(dims);
            }
            // A fused segment runs where its last member stands; its other
            // members leave no value, and nobody but the next member reads
            // them.
            let (value, members) = match role {
                Role::Last(s) if fused[s] => {
                    let segment = &mut plan.segments[s];
                    let out = segment.forward(&mut self.nodes, &values);
                    (Some(out), Some(segment.nodes()))
                }
                Role::First(s) | Role::Inner(s) if fused[s] => (None, None),
                _ => {
                    let node = &mut self.nodes[i];
                    let out = match self.inputs.iter().position(|id| id.0 == i) {
                        Some(k) => node.layer.forward(&[externals[k]], mode),
                        None => {
                            // Earlier activations are borrowed in place:
                            // `values` is only written once the layer has
                            // returned.
                            let refs: Vec<&Tensor> = node
                                .inputs
                                .iter()
                                .map(|id| values[id.0].as_ref().expect("topo order violated"))
                                .collect();
                            node.layer.forward(&refs, mode)
                        }
                    };
                    (Some(out), None)
                }
            };
            if let (Some(profile), Some(start), Some(out)) = (&mut self.profile, start, &value) {
                let row = profile.row(i, members);
                row.forward += start.elapsed();
                row.out_dims = out.dims().to_vec();
            }
            values[i] = value;
        }
        // Every consumer has run, so outputs are moved out (a node declared
        // as an output more than once is shared between its slots). The
        // activations left behind are dropped here: a layer that needs one
        // for backward holds a handle of its own on the same storage.
        let outputs = &self.outputs;
        outputs
            .iter()
            .enumerate()
            .map(|(k, id)| {
                let value = &mut values[id.0];
                let out = if outputs[k + 1..].contains(id) {
                    value.clone()
                } else {
                    value.take()
                };
                out.expect("output not computed")
            })
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

    /// Which nodes back-propagation must reach: `wants[i]` is true when node
    /// `i` owns a parameter, or passes gradients on (it does not
    /// [cut](Layer::cuts_gradient) them) to an input that wants one. One pass
    /// in topological order; an external input owns nothing and has no
    /// inputs, so it never wants a gradient.
    fn gradient_demand(&self) -> Vec<bool> {
        let mut wants = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            wants[i] = !node.layer.params().is_empty()
                || (!node.layer.cuts_gradient() && node.inputs.iter().any(|id| wants[id.0]));
        }
        wants
    }

    /// Back-propagates one seed gradient per declared output, accumulating
    /// parameter gradients. Must follow a matching [`forward`](Self::forward).
    ///
    /// Backward is demand-driven: a gradient is computed only where it can
    /// still reach a parameter. Each layer is told which of its inputs want
    /// one (see [`Layer::backward`]), and a node that no parameter lies
    /// behind — an external input, a [`Detach`](crate::layers::Detach) tap and
    /// whatever feeds only those — is not run at all.
    ///
    /// # Panics
    ///
    /// Panics if the seed count differs from the output count.
    pub fn backward(&mut self, seeds: &[Tensor]) {
        let wants = self.gradient_demand();
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
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        let accumulate = |slot: &mut Option<Tensor>, g: Tensor| match slot {
            Some(acc) => acc.add_assign(&g),
            None => *slot = Some(g),
        };
        for (seed, id) in seeds.iter().zip(&self.outputs) {
            if wants[id.0] {
                accumulate(&mut grads[id.0], seed.clone());
            }
        }
        // A fused segment computes its members' input gradients where its
        // last member stands, and each is added where the member that owes it
        // stands: a node fed by several consumers sums them in the order it
        // always did.
        let mut owed: Vec<Option<(usize, Tensor)>> = vec![None; self.nodes.len()];
        let mut demand = Vec::new();
        for i in (0..self.nodes.len()).rev() {
            let start = self.profile.as_ref().map(|_| Instant::now());
            let pending = self.plan.as_mut().and_then(|plan| match plan.roles[i] {
                Role::Last(s) => Some(&mut plan.segments[s]).filter(|s| s.is_pending()),
                _ => None,
            });
            if let Some(segment) = pending {
                match grads[i].take() {
                    Some(g) => {
                        for (member, node, gi) in segment.backward(&mut self.nodes, &g, wants) {
                            owed[member] = Some((node, gi));
                        }
                        scratch::give_tensor(g);
                    }
                    None => segment.clear_cache(),
                }
                if let (Some(profile), Some(start)) = (&mut self.profile, start) {
                    profile.row(i, Some(segment.nodes())).backward += start.elapsed();
                }
            }
            if let Some((node, gi)) = owed[i].take() {
                accumulate(&mut grads[node], gi);
            }
            let node = &mut self.nodes[i];
            // (An external input has nothing upstream, whoever demanded it.)
            let Some(g) = grads[i].take().filter(|_| !node.inputs.is_empty()) else {
                node.layer.clear_cache();
                continue;
            };
            demand.clear();
            demand.extend(node.inputs.iter().map(|id| wants[id.0]));
            let input_grads = node.layer.backward(&g, &demand);
            // A consumed gradient is the size of an activation: recycled, it
            // serves the next step's scratch takes (unless it is shared — a
            // seed the caller still holds, one arm of an `Add`'s fan-out).
            scratch::give_tensor(g);
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
            if let (Some(profile), Some(start)) = (&mut self.profile, start) {
                profile.row(i, None).backward += start.elapsed();
            }
        }
    }

    /// Test hook, not an option: with `false`, every node runs on its own —
    /// the execution the fused segments are held to, bit for bit.
    #[doc(hidden)]
    pub fn set_fusion_for_tests(&mut self, on: bool) {
        self.clear_caches();
        self.unfused = !on;
        self.plan = None;
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
