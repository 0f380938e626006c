//! Fused segments: chains of element-wise nodes the executor runs as one pass.
//!
//! A convolution's output on `[N, C, H, W]` is normalised, rectified, has a
//! tap or two added and is pooled before anything shrinks it. Run layer by
//! layer that is four or five passes forward and as many back, each reading
//! and writing the whole activation, and in a training job those tensors come
//! from memory, not from cache: the chain costs its traffic, not its
//! arithmetic. A *segment* is such a chain found in the graph and executed
//! plane by plane — every step on a plane while it sits in L1 — writing only
//! the chain's last output forward, and only the input gradient (plus the one
//! gradient all its taps share) on the way back.
//!
//! # The rule
//!
//! [`find`] is a pure function of the graph. A node is *eligible* when it has
//! exactly one consumer, is not a declared output, and is a `BatchNorm2d`, a
//! `Relu`, a two-input `Add` or a 2×2 / stride-2 `AvgPool2d`. A segment is a
//! maximal chain of eligible nodes, each the one consumer of the one before,
//! of the form
//!
//! ```text
//! [BatchNorm2d] → Relu → Add* → [AvgPool2d]        (two nodes or more)
//! ```
//!
//! where every `Add` takes its other operand from outside the chain. That
//! form is one closed expression per element — `pool(relu(bn(x)) + taps)` —
//! with one mask to recompute on the way back; other orders of the same four
//! kinds (a residual block's `Add → Relu`) stay with the layers. Nothing
//! else enters: no flag, no tier, no notion of which sub-network is whose —
//! the original's `Relu → AvgPool2d` qualifies like the synthetic entry
//! chains do.
//!
//! A segment runs fused in [`Mode::Train`](crate::Mode) when its input is
//! not empty, has the rank its members need, and the pool's windows tile the
//! plane; otherwise — evaluation, an odd-sized plane — its members run as the
//! layers they are. A node that fans out or is an output is never a member,
//! so a chain broken by one is a shorter chain, or none.
//!
//! # Why the bits cannot move
//!
//! The fused pass computes, for every element, the expressions the layers
//! compute, in their order, through the same inlined functions
//! ([`normalise`], [`relu`], [`avg_pool_2x2`], …); nothing is rounded that
//! the layers do not round. The only sums over elements are the statistics
//! and `dγ`/`dβ`: the statistics are `BatchNorm2d`'s own passes, and the
//! gradient sums are its chains — one per channel, every element in storage
//! order, through the same `fold_rows` — fed the addends `dy·x̂` and `dy`
//! already multiplied out, which is where the layer rounds them too. The ReLU
//! mask and `x̂` are recomputed from the segment's input to the bits the
//! layers cached.

use super::{Node, NodeId};
use crate::layer::SegmentKind;
use crate::layers::reduce::fold_pairs;
use crate::layers::{
    avg_pool_2x2, avg_unpool_2x2, normalise, relu, relu_slope, tiles_2x2, BatchNorm2d, DxChannel,
};
use amalgam_tensor::{scratch, Tensor};
use std::any::Any;

/// What an eligible node is to a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    BatchNorm,
    Relu,
    Add,
    Pool,
}

/// An `Add` of a segment: the chain plus one operand from outside it.
#[derive(Debug, Clone, Copy)]
struct Tap {
    /// The `Add` node.
    member: usize,
    /// The node the other operand comes from (either input of the `Add`:
    /// IEEE addition commutes, and the compiler is free to swap it anyway).
    outside: usize,
}

/// A fused chain of nodes; see the module docs for the rule.
#[derive(Debug, Clone)]
pub(super) struct Segment {
    /// The members, in chain (and so in topological) order.
    nodes: Vec<usize>,
    /// The node whose output the first member reads.
    input: usize,
    /// Whether the first member is a `BatchNorm2d`.
    batch_norm: bool,
    taps: Vec<Tap>,
    /// Whether the last member is the pool.
    pool: bool,
    /// What the last fused forward left for backward.
    cache: Option<Cache>,
}

/// What backward needs of a fused forward: the segment's input (shared with
/// whoever produced it) — the ReLU mask and `x̂` are recomputed from it; the
/// taps' values are never needed again.
#[derive(Debug, Clone)]
struct Cache {
    x: Tensor,
    /// `(μ, σ⁻¹)` per channel under a `BatchNorm2d`.
    stats: Option<(Vec<f32>, Vec<f32>)>,
}

impl Cache {
    fn reclaim(self) {
        scratch::give_tensor(self.x);
        if let Some((mean, inv_std)) = self.stats {
            scratch::give(mean);
            scratch::give(inv_std);
        }
    }
}

/// What a node is to the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Role {
    /// Run on its own.
    Single,
    /// The first member of segment `.0`: where the executor decides whether
    /// this pass runs the segment fused.
    First(usize),
    /// A member in the middle of segment `.0`.
    Inner(usize),
    /// The last member of segment `.0`: where a fused segment executes.
    Last(usize),
}

/// The segments of a graph and every node's role in them.
#[derive(Debug, Clone)]
pub(super) struct Plan {
    pub(super) segments: Vec<Segment>,
    pub(super) roles: Vec<Role>,
}

impl Plan {
    /// The plan of a graph of `nodes` nodes that runs every one on its own.
    pub(super) fn unfused(nodes: usize) -> Self {
        Plan {
            segments: Vec::new(),
            roles: vec![Role::Single; nodes],
        }
    }
}

/// The segment plan of `nodes` with declared `outputs`.
pub(super) fn find(nodes: &[Node], outputs: &[NodeId]) -> Plan {
    let n = nodes.len();
    // The consumer of each node, for the nodes that have exactly one.
    let mut consumers = vec![0usize; n];
    let mut consumer = vec![usize::MAX; n];
    for (i, node) in nodes.iter().enumerate() {
        for id in &node.inputs {
            consumers[id.0] += 1;
            consumer[id.0] = i;
        }
    }
    let kinds: Vec<Option<Kind>> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            if consumers[i] != 1 || outputs.iter().any(|id| id.0 == i) {
                return None;
            }
            match (node.layer.segment_kind()?, node.inputs.len()) {
                (SegmentKind::BatchNorm, 1) => Some(Kind::BatchNorm),
                (SegmentKind::Relu, 1) => Some(Kind::Relu),
                (SegmentKind::Add, 2) => Some(Kind::Add),
                (
                    SegmentKind::AvgPool {
                        kernel: 2,
                        stride: 2,
                    },
                    1,
                ) => Some(Kind::Pool),
                _ => None,
            }
        })
        .collect();

    let mut plan = Plan::unfused(n);
    for first in 0..n {
        // An eligible node has exactly one consumer, so `consumer` names it.
        let free = |plan: &Plan, node: usize, kind: Kind| {
            kinds[node] == Some(kind) && plan.roles[node] == Role::Single
        };
        let mut members = vec![first];
        let batch_norm = free(&plan, first, Kind::BatchNorm);
        if batch_norm {
            members.push(consumer[first]);
        }
        let relu = *members.last().expect("the first node");
        if !free(&plan, relu, Kind::Relu) {
            continue;
        }
        let mut taps = Vec::new();
        let mut next = consumer[relu];
        while free(&plan, next, Kind::Add) {
            let tail = *members.last().expect("the Relu");
            let operands = &nodes[next].inputs;
            taps.push(Tap {
                member: next,
                outside: operands[usize::from(operands[0].0 == tail)].0,
            });
            members.push(next);
            next = consumer[next];
        }
        let pool = free(&plan, next, Kind::Pool);
        if pool {
            members.push(next);
        }
        if members.len() < 2 {
            continue;
        }
        let id = plan.segments.len();
        for &member in &members {
            plan.roles[member] = Role::Inner(id);
        }
        plan.roles[first] = Role::First(id);
        plan.roles[*members.last().expect("two or more members")] = Role::Last(id);
        plan.segments.push(Segment {
            input: nodes[first].inputs[0].0,
            nodes: members,
            batch_norm,
            taps,
            pool,
            cache: None,
        });
    }
    plan
}

/// The per-channel constants of a `BatchNorm2d`.
struct Channels<'a> {
    mean: &'a [f32],
    inv_std: &'a [f32],
    gamma: &'a [f32],
    beta: &'a [f32],
}

impl<'a> Channels<'a> {
    fn new(bn: &'a BatchNorm2d, (mean, inv_std): &'a (Vec<f32>, Vec<f32>)) -> Self {
        let (gamma, beta) = bn.affine();
        Channels {
            mean,
            inv_std,
            gamma,
            beta,
        }
    }
}

/// `(planes, plane length, row width, channels)` of an input of these
/// dimensions; anything that is not `[N, C, H, W]` is one plane of one row.
fn planes_of(dims: &[usize]) -> (usize, usize, usize, usize) {
    match *dims {
        [n, c, h, w] => (n * c, h * w, w, c),
        _ => (1, dims.iter().product(), dims.iter().product(), 1),
    }
}

impl Segment {
    /// The members, in chain order.
    pub(super) fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// The node the segment reads.
    pub(super) fn input(&self) -> usize {
        self.input
    }

    /// Whether a training pass over an input of these dimensions runs fused:
    /// a `BatchNorm2d` or a pool needs `[N, C, H, W]`, a pool windows that
    /// tile the plane, and an empty tensor is left to the layers.
    pub(super) fn fuses(&self, dims: &[usize]) -> bool {
        dims.iter().all(|&extent| extent > 0)
            && (!(self.batch_norm || self.pool) || dims.len() == 4)
            && (!self.pool || tiles_2x2(2, 2, dims[2], dims[3]))
    }

    /// Whether a fused forward awaits its backward.
    pub(super) fn is_pending(&self) -> bool {
        self.cache.is_some()
    }

    /// Drops what a fused forward left behind.
    pub(super) fn clear_cache(&mut self) {
        if let Some(stale) = self.cache.take() {
            stale.reclaim();
        }
    }

    /// The `BatchNorm2d` the segment begins with, if it does.
    fn batch_norm<'a>(&self, nodes: &'a mut [Node]) -> Option<&'a mut BatchNorm2d> {
        let first: &mut dyn Any = &mut *nodes[self.nodes[0]].layer;
        first.downcast_mut().filter(|_| self.batch_norm)
    }

    /// `relu(bn(x)) + tap` of one plane — `relu(x)` without a `BatchNorm2d`,
    /// nothing added without a tap.
    #[inline(always)]
    fn rectify(
        out: &mut [f32],
        src: &[f32],
        channel: Option<(&Channels<'_>, usize)>,
        tap: Option<&[f32]>,
    ) {
        // One loop per combination, so that each is a straight vector loop.
        #[inline(always)]
        fn run(out: &mut [f32], src: &[f32], tap: Option<&[f32]>, f: impl Fn(f32) -> f32) {
            match tap {
                Some(tap) => {
                    for ((o, &v), &t) in out.iter_mut().zip(src).zip(tap) {
                        *o = f(v) + t;
                    }
                }
                None => {
                    for (o, &v) in out.iter_mut().zip(src) {
                        *o = f(v);
                    }
                }
            }
        }
        match channel {
            Some((ch, ci)) => {
                let (mu, istd, g, b) = (ch.mean[ci], ch.inv_std[ci], ch.gamma[ci], ch.beta[ci]);
                run(out, src, tap, |v| relu(normalise(v, mu, istd, g, b)));
            }
            None => run(out, src, tap, relu),
        }
    }

    /// The training-mode forward pass of the whole segment: the statistics
    /// passes of its `BatchNorm2d` (if it has one), then one pass writing the
    /// last member's output. `values` holds every earlier node's output.
    pub(super) fn forward(&mut self, nodes: &mut [Node], values: &[Option<Tensor>]) -> Tensor {
        self.clear_cache();
        let value = |i: usize| values[i].clone().expect("topo order violated");
        let x = value(self.input);
        let taps: Vec<Tensor> = self.taps.iter().map(|tap| value(tap.outside)).collect();
        for tap in &taps {
            assert!(
                tap.shape().same_as(x.shape()),
                "zip_map shape mismatch: {} vs {}",
                x.shape(),
                tap.shape()
            );
        }
        let d = x.dims();
        let (planes, len, w, channels) = planes_of(d);
        let mut bn = self.batch_norm(nodes);
        let stats = bn.as_mut().map(|bn| bn.statistics(&x, true));
        let head = bn.as_deref().zip(stats.as_ref());
        let head = head.map(|(bn, stats)| Channels::new(bn, stats));

        // Every element of `out` is written below.
        let mut out = if self.pool {
            scratch::take_tensor_raw(&[d[0], d[1], d[2] / 2, d[3] / 2])
        } else {
            scratch::take_tensor_raw(d)
        };
        let out_len = out.numel() / planes;
        let mut staged = scratch::take_raw(if self.pool { len } else { 0 });
        let targets = out.data_mut().chunks_exact_mut(out_len);
        for (p, (src, dst)) in x.data().chunks_exact(len).zip(targets).enumerate() {
            let span = p * len..(p + 1) * len;
            // Without a pool the plane is finished where it is written.
            let cur: &mut [f32] = if self.pool { &mut staged } else { &mut *dst };
            let channel = head.as_ref().map(|ch| (ch, p % channels));
            let first = taps.first().map(|tap| &tap.data()[span.clone()]);
            Self::rectify(cur, src, channel, first);
            for tap in taps.iter().skip(1) {
                let tap = &tap.data()[span.clone()];
                cur.iter_mut().zip(tap).for_each(|(c, &t)| *c += t);
            }
            if self.pool {
                avg_pool_2x2(&staged, dst, w);
            }
        }
        scratch::give(staged);
        self.cache = Some(Cache { x, stats });
        out
    }

    /// Back-propagates `grad` (with respect to the last member's output)
    /// through a fused forward: under a `BatchNorm2d`, one reduction pass for
    /// `dγ`/`dβ`; then one pass writing the input gradient if somebody
    /// `wants` it. The gradient every demanded tap shares (`Add` hands both
    /// its operands its output gradient) is `grad` itself, or its pool
    /// adjoint written once on the way. Returns `(member, node, gradient)`
    /// triples: `gradient` is what `member` would have returned for its
    /// input `node` had it run on its own.
    pub(super) fn backward(
        &mut self,
        nodes: &mut [Node],
        grad: &Tensor,
        wants: &[bool],
    ) -> Vec<(usize, usize, Tensor)> {
        let cache = self.cache.take().expect("segment backward before forward");
        let Cache { x, stats } = &cache;
        let d = x.dims();
        let (planes, len, w, channels) = planes_of(d);
        let image = channels * len;
        let grad_len = if self.pool { len / 4 } else { len };
        assert_eq!(grad.numel(), planes * grad_len, "segment gradient mismatch");
        let want_dx = wants[self.input];
        let want_taps = self.taps.iter().any(|tap| wants[tap.outside]);

        // What both passes start from is the gradient behind the `Add`s:
        // `grad` where it lies, or its pool adjoint — spread, by the first
        // pass to come by, into a tensor of its own if a tap demands it (the
        // second pass reads it there), else into a plane of scratch by each.
        let pool = self.pool;
        let mut tap_grad = (pool && want_taps).then(|| scratch::take_raw(x.numel()));
        let mut plane = scratch::take_raw(if pool && !want_taps { len } else { 0 });
        let mut spread_out = false;
        fn behind_adds<'a>(
            p: usize,
            len: usize,
            grad: &'a [f32],
            width: Option<usize>,
            kept: Option<(&'a mut Vec<f32>, bool)>,
            plane: &'a mut [f32],
        ) -> &'a [f32] {
            let span = p * len..(p + 1) * len;
            let Some(w) = width else {
                return &grad[span];
            };
            let (target, spread) = match kept {
                Some((kept, spread_out)) => (&mut kept[span], !spread_out),
                None => (plane, true),
            };
            if spread {
                avg_unpool_2x2(&grad[p * len / 4..][..len / 4], target, w);
            }
            target
        }
        let width = pool.then_some(w);

        let bn = self.batch_norm(nodes);
        let head = bn.as_deref().zip(stats.as_ref());
        let head = head.map(|(bn, stats)| Channels::new(bn, stats));
        let sums = head.as_ref().map(|ch| {
            // (dγ, dβ): per image, the addends `(dy·x̂, dy)` of every channel,
            // then `BatchNorm2d`'s chains over them — a channel's two side
            // by side, so that they advance as one two-lane vector.
            let mut sums = vec![[0.0f32; 2]; channels];
            let mut addends = scratch::take_raw(2 * image);
            let (pairs, _) = addends.as_chunks_mut::<2>();
            for (ni, x_image) in x.data().chunks_exact(image).enumerate() {
                let rows = pairs.chunks_exact_mut(len).zip(x_image.chunks_exact(len));
                for (ci, (pairs, src)) in rows.enumerate() {
                    let kept = tap_grad.as_mut().map(|kept| (kept, spread_out));
                    let p = ni * channels + ci;
                    let behind = behind_adds(p, len, grad.data(), width, kept, &mut plane);
                    let (mu, istd, g, b) = (ch.mean[ci], ch.inv_std[ci], ch.gamma[ci], ch.beta[ci]);
                    for ((pair, &behind), &v) in pairs.iter_mut().zip(behind).zip(src) {
                        // The `Relu`'s output is positive where its input is.
                        let dy = behind * relu_slope(normalise(v, mu, istd, g, b));
                        *pair = [dy * ((v - mu) * istd), dy];
                    }
                }
                fold_pairs(&mut sums, pairs, len);
            }
            scratch::give(addends);
            spread_out = true;
            sums
        });

        let dx = want_dx.then(|| {
            let mut dx = scratch::take_raw(x.numel());
            let m = (planes / channels * len) as f32;
            let sources = dx.chunks_exact_mut(len).zip(x.data().chunks_exact(len));
            for (p, (dx, src)) in sources.enumerate() {
                let kept = tap_grad.as_mut().map(|kept| (kept, spread_out));
                let behind = behind_adds(p, len, grad.data(), width, kept, &mut plane);
                let targets = dx.iter_mut().zip(behind).zip(src);
                match (&head, &sums) {
                    (Some(ch), Some(sums)) => {
                        let ci = p % channels;
                        let (mu, istd, g, b) =
                            (ch.mean[ci], ch.inv_std[ci], ch.gamma[ci], ch.beta[ci]);
                        let channel = DxChannel::new(mu, istd, g, sums[ci].into(), m);
                        for ((o, &behind), &v) in targets {
                            let dy = behind * relu_slope(normalise(v, mu, istd, g, b));
                            *o = channel.dx(dy, v);
                        }
                    }
                    _ => {
                        for ((o, &behind), &v) in targets {
                            *o = behind * relu_slope(v);
                        }
                    }
                }
            }
            spread_out = true;
            dx
        });
        if let (Some(kept), false, Some(w)) = (&mut tap_grad, spread_out, width) {
            // Nobody came by: no `BatchNorm2d`, no input gradient.
            avg_unpool_2x2(grad.data(), kept, w);
        }
        scratch::give(plane);
        if let (Some(bn), Some(sums)) = (bn, sums) {
            bn.accumulate_grads(sums.into_iter().map(Into::into));
        }

        let tap_grad = match tap_grad {
            Some(spread_out) => Tensor::from_vec(spread_out, d),
            None => grad.clone(),
        };
        let demanded = self.taps.iter().filter(|tap| wants[tap.outside]);
        let mut results: Vec<(usize, usize, Tensor)> = demanded
            .map(|tap| (tap.member, tap.outside, tap_grad.clone()))
            .collect();
        if let Some(dx) = dx {
            results.push((self.nodes[0], self.input, Tensor::from_vec(dx, d)));
        }
        cache.reclaim();
        results
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::{GraphModel, NodeId};
    use crate::layers::{Add, AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, Relu};
    use crate::Mode;
    use amalgam_tensor::{Rng, Tensor};

    /// `conv → bn → relu → add(tap) → pool → flatten → fc`, the pool `k × k`.
    fn entry_chain(k: usize, rng: &mut Rng) -> (GraphModel, [NodeId; 4]) {
        let mut g = GraphModel::new();
        let x = g.input("x");
        let conv = g.add_layer("conv", Conv2d::new(1, 3, 3, 1, 1, false, rng), &[x]);
        let tap = g.add_layer("tap", Conv2d::new(1, 3, 1, 1, 0, false, rng), &[x]);
        let bn = g.add_layer("bn", BatchNorm2d::new(3), &[conv]);
        let relu = g.add_layer("relu", Relu::new(), &[bn]);
        let add = g.add_layer("add", Add::new(), &[relu, tap]);
        let pool = g.add_layer("pool", AvgPool2d::new(k, k), &[add]);
        let flat = g.add_layer("flat", Flatten::new(), &[pool]);
        let side = 8 / k;
        let fc = g.add_layer("fc", Linear::new(3 * side * side, 2, true, rng), &[flat]);
        g.set_output(fc);
        (g, [bn, relu, add, pool])
    }

    /// The member lists of the segments that ran fused in one pass.
    fn fused_runs(g: &mut GraphModel, x: &Tensor, mode: Mode) -> Vec<Vec<NodeId>> {
        g.set_profiling(true);
        g.forward(&[x], mode);
        g.clear_caches();
        let rows = g.profile().into_iter().map(|row| row.nodes);
        rows.filter(|nodes| nodes.len() > 1).collect()
    }

    #[test]
    fn the_entry_chain_is_one_segment_in_training_only() {
        let mut rng = Rng::seed_from(0);
        let (mut g, chain) = entry_chain(2, &mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);
        assert_eq!(fused_runs(&mut g, &x, Mode::Train), [chain.to_vec()]);
        assert!(fused_runs(&mut g, &x, Mode::Eval).is_empty());
    }

    #[test]
    fn a_pool_that_does_not_tile_its_plane_falls_back() {
        let mut rng = Rng::seed_from(3);
        let mut g = GraphModel::new();
        let x = g.input("x");
        let conv = g.add_layer("conv", Conv2d::new(1, 2, 1, 1, 0, false, &mut rng), &[x]);
        let relu = g.add_layer("relu", Relu::new(), &[conv]);
        let pool = g.add_layer("pool", AvgPool2d::new(2, 2), &[relu]);
        let tail = g.add_layer("tail", Flatten::new(), &[pool]);
        g.set_output(tail);
        let even = Tensor::randn(&[2, 1, 6, 4], &mut rng);
        assert_eq!(fused_runs(&mut g, &even, Mode::Train), [vec![relu, pool]]);
        let odd = Tensor::randn(&[2, 1, 5, 4], &mut rng);
        assert!(fused_runs(&mut g, &odd, Mode::Train).is_empty());
    }

    #[test]
    fn fan_out_outputs_and_other_pools_cut_a_chain() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[2, 1, 8, 8], &mut rng);

        // A 4×4 pool is not a member: the chain ends at the `Add`.
        let (mut g, [bn, relu, add, _]) = entry_chain(4, &mut rng);
        assert_eq!(fused_runs(&mut g, &x, Mode::Train), [vec![bn, relu, add]]);

        // The `Add` declared an output: it is materialised by its layer, and
        // a pool cannot begin a chain.
        let (mut g, [bn, relu, add, _]) = entry_chain(2, &mut rng);
        let fc = g.outputs()[0];
        g.set_outputs(&[fc, add]);
        assert_eq!(fused_runs(&mut g, &x, Mode::Train), [vec![bn, relu]]);

        // The `Relu` read twice: `bn` alone is no chain, `add → pool` has no
        // head.
        let (mut g, [_, relu, ..]) = entry_chain(2, &mut rng);
        let fc = g.outputs()[0];
        let again = g.add_layer("again", Relu::new(), &[relu]);
        g.set_outputs(&[fc, again]);
        assert!(fused_runs(&mut g, &x, Mode::Train).is_empty());
    }

    #[test]
    fn a_second_batch_norm_begins_its_own_chain() {
        let mut rng = Rng::seed_from(2);
        let mut g = GraphModel::new();
        let x = g.input("x");
        let conv = g.add_layer("conv", Conv2d::new(1, 2, 1, 1, 0, false, &mut rng), &[x]);
        let bn1 = g.add_layer("bn1", BatchNorm2d::new(2), &[conv]);
        let relu1 = g.add_layer("relu1", Relu::new(), &[bn1]);
        let bn2 = g.add_layer("bn2", BatchNorm2d::new(2), &[relu1]);
        let relu2 = g.add_layer("relu2", Relu::new(), &[bn2]);
        let out = g.add_layer("out", Flatten::new(), &[relu2]);
        g.set_output(out);
        let x = Tensor::randn(&[2, 1, 4, 4], &mut rng);
        assert_eq!(
            fused_runs(&mut g, &x, Mode::Train),
            [vec![bn1, relu1], vec![bn2, relu2]]
        );
    }
}
