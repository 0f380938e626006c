//! Structural layers: graph plumbing (inputs, joins, taps) rather than math.
//!
//! [`Detach`] deserves special mention: Amalgam taps original-layer outputs
//! into synthetic sub-networks, and routing those taps through `Detach` is
//! what guarantees the synthetic branches' losses never contaminate the
//! original parameters' gradients (paper Algorithm 1 updates each θˢ only
//! with ∇L(θˢ); see DESIGN.md D2).

use crate::layer::{Layer, Mode, Param, SegmentKind};
use crate::spec::LayerSpec;
use amalgam_tensor::{scratch, Tensor};

/// Graph input placeholder: returns the externally supplied tensor.
#[derive(Debug, Clone, Default)]
pub struct Input;

impl Input {
    /// A new input placeholder.
    pub fn new() -> Self {
        Input
    }
}

impl Layer for Input {
    fn kind(&self) -> &'static str {
        "Input"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(
            inputs.len(),
            1,
            "Input receives exactly the external tensor"
        );
        inputs[0].clone()
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        vec![demand[0].then(|| grad_out.clone())]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Input
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Pass-through layer.
#[derive(Debug, Clone, Default)]
pub struct Identity;

impl Identity {
    /// A new identity layer.
    pub fn new() -> Self {
        Identity
    }
}

impl Layer for Identity {
    fn kind(&self) -> &'static str {
        "Identity"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "Identity takes one input");
        inputs[0].clone()
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        vec![demand[0].then(|| grad_out.clone())]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Identity
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Identity forward, **no** backward: a stop-gradient barrier.
///
/// It [cuts](Layer::cuts_gradient) the demand analysis, so inside a graph its
/// `backward` is never reached; called directly it reports a zero gradient
/// the cheap way, as a missing slot.
#[derive(Debug, Clone, Default)]
pub struct Detach;

impl Detach {
    /// A new stop-gradient layer.
    pub fn new() -> Self {
        Detach
    }
}

impl Layer for Detach {
    fn kind(&self) -> &'static str {
        "Detach"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "Detach takes one input");
        inputs[0].clone()
    }

    fn backward(&mut self, _grad_out: &Tensor, _demand: &[bool]) -> Vec<Option<Tensor>> {
        vec![None]
    }

    fn cuts_gradient(&self) -> bool {
        true
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Detach
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Element-wise sum of any number of same-shaped inputs (residual joins).
#[derive(Debug, Clone, Default)]
pub struct Add {
    arity: Option<usize>,
}

impl Add {
    /// A new addition join.
    pub fn new() -> Self {
        Add { arity: None }
    }
}

impl Layer for Add {
    fn kind(&self) -> &'static str {
        "Add"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert!(!inputs.is_empty(), "Add needs at least one input");
        self.arity = Some(inputs.len());
        let Some(second) = inputs.get(1) else {
            return inputs[0].clone();
        };
        // The first sum is written straight into the output; a copy of
        // `inputs[0]` to add onto would be a whole pass that computes nothing.
        let mut out = scratch::zip_map_tensor(inputs[0], second, |a, b| a + b);
        for x in &inputs[2..] {
            out.add_assign(x);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let arity = self.arity.take().expect("Add backward before forward");
        assert_eq!(demand.len(), arity, "Add demand arity mismatch");
        demand
            .iter()
            .map(|&d| d.then(|| grad_out.clone()))
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Add
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn segment_kind(&self) -> Option<SegmentKind> {
        Some(SegmentKind::Add)
    }
}

/// Element-wise product of exactly two same-shaped inputs (gates).
#[derive(Debug, Clone, Default)]
pub struct Mul {
    cache: Option<(Tensor, Tensor)>,
}

impl Mul {
    /// A new multiplication gate.
    pub fn new() -> Self {
        Mul { cache: None }
    }
}

impl Layer for Mul {
    fn kind(&self) -> &'static str {
        "Mul"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 2, "Mul takes exactly two inputs");
        let out = inputs[0].mul(inputs[1]);
        self.cache = Some((inputs[0].clone(), inputs[1].clone()));
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let (a, b) = self.cache.take().expect("Mul backward before forward");
        vec![
            demand[0].then(|| grad_out.mul(&b)),
            demand[1].then(|| grad_out.mul(&a)),
        ]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Mul
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Concatenation along axis 1 (channels for `[N,C,H,W]`, features for `[N,F]`).
///
/// All inputs must agree on every dimension except axis 1.
#[derive(Debug, Clone, Default)]
pub struct Concat {
    cache: Option<Vec<Vec<usize>>>, // input dims
}

impl Concat {
    /// A new concatenation join.
    pub fn new() -> Self {
        Concat { cache: None }
    }
}

impl Layer for Concat {
    fn kind(&self) -> &'static str {
        "Concat"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert!(!inputs.is_empty(), "Concat needs at least one input");
        let first = inputs[0].dims();
        assert!(first.len() >= 2, "Concat inputs must have rank >= 2");
        let n = first[0];
        let rest: usize = first[2..].iter().product();
        let mut total_c = 0usize;
        for x in inputs {
            let d = x.dims();
            assert_eq!(d[0], n, "Concat batch mismatch");
            assert_eq!(
                d[2..].iter().product::<usize>(),
                rest,
                "Concat trailing dims mismatch"
            );
            total_c += d[1];
        }
        let mut out_dims = first.to_vec();
        out_dims[1] = total_c;
        let mut out = Tensor::zeros(&out_dims);
        {
            let dst = out.data_mut();
            for ni in 0..n {
                let mut c_off = 0usize;
                for x in inputs {
                    let ci = x.dims()[1];
                    let src = &x.data()[ni * ci * rest..(ni + 1) * ci * rest];
                    dst[ni * total_c * rest + c_off * rest
                        ..ni * total_c * rest + (c_off + ci) * rest]
                        .copy_from_slice(src);
                    c_off += ci;
                }
            }
        }
        self.cache = Some(inputs.iter().map(|x| x.dims().to_vec()).collect());
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let dims_list = self.cache.take().expect("Concat backward before forward");
        assert_eq!(
            demand.len(),
            dims_list.len(),
            "Concat demand arity mismatch"
        );
        let n = dims_list[0][0];
        let rest: usize = dims_list[0][2..].iter().product();
        let total_c: usize = dims_list.iter().map(|d| d[1]).sum();
        let src = grad_out.data();
        let mut c_off = 0usize;
        dims_list
            .iter()
            .zip(demand)
            .map(|(d, &demanded)| {
                let ci = d[1];
                let start = c_off * rest;
                c_off += ci;
                demanded.then(|| {
                    // Input `k` is the channel band [c_off, c_off + ci) of
                    // every batch item, copied band by band in batch order.
                    let mut g = Vec::with_capacity(n * ci * rest);
                    for ni in 0..n {
                        let base = ni * total_c * rest + start;
                        g.extend_from_slice(&src[base..base + ci * rest]);
                    }
                    Tensor::from_vec(g, d)
                })
            })
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Concat
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Flattens `[N, ...]` into `[N, prod(...)]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cache_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// A new flattening layer.
    pub fn new() -> Self {
        Flatten { cache_dims: None }
    }
}

impl Layer for Flatten {
    fn kind(&self) -> &'static str {
        "Flatten"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "Flatten takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert!(!d.is_empty(), "Flatten input must have rank >= 1");
        self.cache_dims = Some(d.to_vec());
        x.reshape(&[d[0], d[1..].iter().product()])
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let dims = self
            .cache_dims
            .take()
            .expect("Flatten backward before forward");
        vec![demand[0].then(|| grad_out.reshape(&dims))]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Flatten
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache_dims = None;
    }
}

/// Scales a `[N, C, H, W]` map by per-channel gates `[N, C]` (CBAM channel
/// attention). First input: the map; second: the gates.
#[derive(Debug, Clone, Default)]
pub struct BroadcastMulChannel {
    cache: Option<(Tensor, Tensor)>,
}

impl BroadcastMulChannel {
    /// A new broadcast-multiply layer.
    pub fn new() -> Self {
        BroadcastMulChannel { cache: None }
    }
}

impl Layer for BroadcastMulChannel {
    fn kind(&self) -> &'static str {
        "BroadcastMulChannel"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 2, "BroadcastMulChannel takes map and gates");
        let (x, g) = (inputs[0], inputs[1]);
        let d = x.dims();
        assert_eq!(d.len(), 4, "map must be [N,C,H,W]");
        assert_eq!(g.dims(), &[d[0], d[1]], "gates must be [N,C]");
        let hw = d[2] * d[3];
        let mut out = Vec::with_capacity(x.numel());
        for (plane, &gv) in x.data().chunks_exact(hw.max(1)).zip(g.data()) {
            out.extend(plane.iter().map(|&v| v * gv));
        }
        self.cache = Some((x.clone(), g.clone()));
        Tensor::from_vec(out, d)
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let (x, g) = self
            .cache
            .take()
            .expect("BroadcastMulChannel backward before forward");
        let d = x.dims();
        let hw = d[2] * d[3];
        let mut dx = demand[0].then(|| Tensor::zeros(d));
        let mut dg = demand[1].then(|| Tensor::zeros(g.dims()));
        let mut dx_cells = dx.as_mut().map(Tensor::data_mut);
        let mut dg_cells = dg.as_mut().map(Tensor::data_mut);
        for nc in 0..d[0] * d[1] {
            let gv = g.data()[nc];
            let mut acc = 0.0f32;
            for p in 0..hw {
                let go = grad_out.data()[nc * hw + p];
                acc += go * x.data()[nc * hw + p];
                if let Some(cells) = &mut dx_cells {
                    cells[nc * hw + p] = go * gv;
                }
            }
            if let Some(cells) = &mut dg_cells {
                cells[nc] = acc;
            }
        }
        vec![dx, dg]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::BroadcastMulChannel
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Mean over the sequence axis: `[B, T, D]` → `[B, D]` (bag-of-embeddings
/// pooling for the paper's text classification model).
#[derive(Debug, Clone, Default)]
pub struct MeanPoolSeq {
    cache_dims: Option<Vec<usize>>,
}

impl MeanPoolSeq {
    /// A new sequence-mean pooling layer.
    pub fn new() -> Self {
        MeanPoolSeq { cache_dims: None }
    }
}

impl Layer for MeanPoolSeq {
    fn kind(&self) -> &'static str {
        "MeanPoolSeq"
    }

    fn forward(&mut self, inputs: &[&Tensor], _mode: Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "MeanPoolSeq takes one input");
        let x = inputs[0];
        let d = x.dims();
        assert_eq!(d.len(), 3, "MeanPoolSeq input must be [B,T,D]");
        let (b, t, dim) = (d[0], d[1], d[2]);
        let inv = 1.0 / t as f32;
        let mut out = Tensor::zeros(&[b, dim]);
        let means = out.data_mut();
        for bi in 0..b {
            for ti in 0..t {
                for di in 0..dim {
                    means[bi * dim + di] += x.data()[bi * t * dim + ti * dim + di] * inv;
                }
            }
        }
        self.cache_dims = Some(d.to_vec());
        out
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        let dims = self
            .cache_dims
            .take()
            .expect("MeanPoolSeq backward before forward");
        if !demand[0] {
            return vec![None];
        }
        let (b, t, dim) = (dims[0], dims[1], dims[2]);
        let inv = 1.0 / t as f32;
        let mut dx = Tensor::zeros(&dims);
        let cells = dx.data_mut();
        for bi in 0..b {
            for ti in 0..t {
                for di in 0..dim {
                    cells[bi * t * dim + ti * dim + di] = grad_out.data()[bi * dim + di] * inv;
                }
            }
        }
        vec![Some(dx)]
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::MeanPoolSeq
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.cache_dims = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use amalgam_tensor::Rng;

    #[test]
    fn detach_blocks_gradient() {
        let mut d = Detach::new();
        let x = Tensor::ones(&[2, 2]);
        let y = d.forward(&[&x], Mode::Train);
        assert_eq!(y.data(), x.data());
        assert!(d.cuts_gradient());
        let g = d.backward(&Tensor::ones(&[2, 2]), &[true]);
        assert_eq!(g, vec![None]);
    }

    #[test]
    fn add_fans_gradient_out() {
        let mut a = Add::new();
        let x = Tensor::ones(&[2]);
        let y = a.forward(&[&x, &x, &x], Mode::Train);
        assert_eq!(y.data(), &[3.0, 3.0]);
        let g = a.backward(&Tensor::ones(&[2]), &[true, false, true]);
        assert_eq!(g.len(), 3);
        assert!(g[0].is_some() && g[1].is_none() && g[2].is_some());
    }

    #[test]
    fn concat_channels_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[1, 2, 1, 2]);
        let mut c = Concat::new();
        let y = c.forward(&[&a, &b], Mode::Train);
        assert_eq!(y.dims(), &[1, 3, 1, 2]);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = c.backward(&y, &[true, true]);
        assert_eq!(g[0].as_ref().unwrap().data(), a.data());
        assert_eq!(g[1].as_ref().unwrap().data(), b.data());
    }

    #[test]
    fn concat_2d_features() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]);
        let mut c = Concat::new();
        let y = c.forward(&[&a, &b], Mode::Train);
        assert_eq!(y.dims(), &[2, 2]);
        assert_eq!(y.data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn mul_gradcheck() {
        let mut rng = Rng::seed_from(0);
        check_layer_gradients(Box::new(Mul::new()), &[&[2, 3], &[2, 3]], 1e-2, &mut rng);
    }

    #[test]
    fn broadcast_mul_channel_gradcheck() {
        let mut rng = Rng::seed_from(1);
        check_layer_gradients(
            Box::new(BroadcastMulChannel::new()),
            &[&[2, 3, 2, 2], &[2, 3]],
            1e-2,
            &mut rng,
        );
    }

    #[test]
    fn mean_pool_seq_gradcheck() {
        let mut rng = Rng::seed_from(2);
        check_layer_gradients(Box::new(MeanPoolSeq::new()), &[&[2, 4, 3]], 1e-2, &mut rng);
    }

    #[test]
    fn flatten_roundtrips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = f.forward(&[&x], Mode::Train);
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&y, &[true]);
        assert_eq!(g[0].as_ref().unwrap().dims(), &[2, 3, 4]);
    }
}
