//! DISCO-style dynamic channel obfuscation (Singh et al., CVPR 2021).
//!
//! DISCO protects a split-learning feature map by pruning sensitive channels
//! and adding noise channels at the split point. This reproduction inserts
//! an obfuscation module after the model's first convolution: a fixed random
//! channel dropout mask, a parallel noise-channel branch, and a 1×1
//! re-mixing convolution that restores the channel count so the rest of the
//! model is untouched.

use amalgam_nn::graph::{GraphModel, NodeId, Provenance};
use amalgam_nn::layers::{BroadcastMulChannel, Concat, Conv2d, Input, Relu};
use amalgam_nn::Layer;
use amalgam_tensor::{Rng, Tensor};

/// Configuration of the DISCO-like obfuscator.
#[derive(Debug, Clone, Copy)]
pub struct DiscoConfig {
    /// Fraction of channels pruned at the split point.
    pub prune_ratio: f32,
    /// Number of injected noise channels.
    pub noise_channels: usize,
    /// Seed for mask/noise generation.
    pub seed: u64,
}

impl Default for DiscoConfig {
    fn default() -> Self {
        DiscoConfig {
            prune_ratio: 0.25,
            noise_channels: 8,
            seed: 0,
        }
    }
}

/// A constant per-channel gate layer (the DISCO pruning mask).
#[derive(Debug, Clone)]
struct FixedChannelMask {
    inner: BroadcastMulChannel,
    mask: Vec<f32>,
}

impl FixedChannelMask {
    fn new(mask: Vec<f32>) -> Self {
        FixedChannelMask {
            inner: BroadcastMulChannel::new(),
            mask,
        }
    }
}

impl Layer for FixedChannelMask {
    fn kind(&self) -> &'static str {
        "BroadcastMulChannel" // serialized as the generic gate
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: amalgam_nn::Mode) -> Tensor {
        assert_eq!(inputs.len(), 1, "FixedChannelMask takes one input");
        let x = inputs[0];
        let n = x.dims()[0];
        let mut gates = Tensor::zeros(&[n, self.mask.len()]);
        for ni in 0..n {
            gates.data_mut()[ni * self.mask.len()..(ni + 1) * self.mask.len()]
                .copy_from_slice(&self.mask);
        }
        self.inner.forward(&[x, &gates], mode)
    }

    fn backward(&mut self, grad_out: &Tensor, demand: &[bool]) -> Vec<Option<Tensor>> {
        // The gate is constant, not an input: its gradient is never wanted.
        let mut grads = self.inner.backward(grad_out, &[demand[0], false]);
        grads.truncate(1);
        grads
    }

    fn spec(&self) -> amalgam_nn::LayerSpec {
        amalgam_nn::LayerSpec::BroadcastMulChannel
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.inner.clear_cache();
    }
}

/// Wraps `model` with a DISCO-style obfuscation module after its first
/// convolution. The returned model has the same input/output contract.
///
/// # Panics
///
/// Panics if the model does not have exactly one input feeding a Conv2d.
pub fn disco_obfuscate(model: &GraphModel, cfg: &DiscoConfig, rng: &mut Rng) -> GraphModel {
    let input_id = *model.input_ids().first().expect("model must have an input");
    let first_conv = model
        .node_ids()
        .find(|&id| id != input_id && model.node(id).inputs().contains(&input_id))
        .expect("model must consume its input");
    assert_eq!(
        model.node(first_conv).kind(),
        "Conv2d",
        "first layer must be Conv2d"
    );
    let channels = match model.node(first_conv).layer().spec() {
        amalgam_nn::LayerSpec::Conv2d { weight, .. } => weight.dims()[0],
        _ => unreachable!(),
    };
    let in_channels = match model.node(first_conv).layer().spec() {
        amalgam_nn::LayerSpec::Conv2d { weight, .. } => weight.dims()[1],
        _ => unreachable!(),
    };

    // Pruning mask: a fixed fraction of channels is zeroed.
    let pruned = ((channels as f32 * cfg.prune_ratio) as usize).min(channels.saturating_sub(1));
    let mut mask = vec![1.0f32; channels];
    let mut mrng = Rng::seed_from(cfg.seed);
    for &i in &mrng.sample_indices(channels, pruned) {
        mask[i] = 0.0;
    }

    // Rebuild the graph with the obfuscation module spliced in.
    let mut g = GraphModel::new();
    let mut map: Vec<Option<NodeId>> = vec![None; model.node_count()];
    for id in model.node_ids() {
        let node = model.node(id);
        let new_id = if id == input_id {
            g.input(node.name())
        } else {
            let inputs: Vec<NodeId> = node
                .inputs()
                .iter()
                .map(|i| map[i.index()].expect("topo order"))
                .collect();
            g.add_boxed(node.name(), node.layer().boxed_clone(), &inputs)
        };
        map[id.index()] = Some(new_id);

        if id == first_conv {
            // Splice: mask → concat with noise branch → 1×1 remix.
            let conv_out = map[id.index()].expect("just inserted");
            let masked = g.add_layer(
                "disco.mask",
                FixedChannelMask::new(mask.clone()),
                &[conv_out],
            );
            let noise_branch = g.add_layer(
                "disco.noise",
                Conv2d::new(in_channels, cfg.noise_channels, 3, 1, 1, true, rng),
                &[map[input_id.index()].expect("input inserted")],
            );
            let noise_act = g.add_layer("disco.noise.relu", Relu::new(), &[noise_branch]);
            // DISCO's obfuscator is itself a small network; a second conv
            // keeps the overhead in the paper's "medium" band.
            let noise_branch2 = g.add_layer(
                "disco.noise2",
                Conv2d::new(cfg.noise_channels, cfg.noise_channels, 3, 1, 1, true, rng),
                &[noise_act],
            );
            let noise_act = g.add_layer("disco.noise2.relu", Relu::new(), &[noise_branch2]);
            let cat = g.add_layer("disco.cat", Concat::new(), &[masked, noise_act]);
            let remix = g.add_layer(
                "disco.remix",
                Conv2d::new(channels + cfg.noise_channels, channels, 1, 1, 0, true, rng),
                &[cat],
            );
            g.set_provenance(remix, Provenance::Synthetic);
            map[id.index()] = Some(remix); // downstream consumers read the remix
        }
    }
    let outs: Vec<NodeId> = model
        .outputs()
        .iter()
        .map(|o| map[o.index()].expect("output mapped"))
        .collect();
    g.set_outputs(&outs);
    // Silence the unused-import warning for Input (kept for API symmetry).
    let _ = Input::new();
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_models::lenet5;
    use amalgam_nn::Mode;

    #[test]
    fn obfuscated_model_keeps_io_contract() {
        let mut rng = Rng::seed_from(0);
        let model = lenet5(1, 8, 4, &mut rng);
        let mut disco = disco_obfuscate(&model, &DiscoConfig::default(), &mut rng);
        let y = disco.forward_one(&Tensor::zeros(&[2, 1, 8, 8]), Mode::Eval);
        assert_eq!(y.dims(), &[2, 4]);
    }

    #[test]
    fn obfuscation_adds_parameters() {
        let mut rng = Rng::seed_from(1);
        let model = lenet5(1, 8, 4, &mut rng);
        let disco = disco_obfuscate(&model, &DiscoConfig::default(), &mut rng);
        assert!(disco.param_count() > model.param_count());
    }

    #[test]
    fn pruned_channels_are_zeroed() {
        let mut rng = Rng::seed_from(2);
        let mut mask_layer = FixedChannelMask::new(vec![1.0, 0.0]);
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let y = mask_layer.forward(&[&x], Mode::Eval);
        assert_eq!(&y.data()[..4], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(&y.data()[4..], &[0.0, 0.0, 0.0, 0.0]);
        let _ = &mut rng;
    }

    #[test]
    fn obfuscated_model_still_trains() {
        let mut rng = Rng::seed_from(3);
        let model = lenet5(1, 8, 2, &mut rng);
        let mut disco = disco_obfuscate(&model, &DiscoConfig::default(), &mut rng);
        let x = Tensor::randn(&[4, 1, 8, 8], &mut rng);
        let out = disco.forward_one(&x, Mode::Train);
        let (_, grad) = amalgam_nn::loss::cross_entropy(&out, &[0, 1, 0, 1]);
        disco.zero_grad();
        disco.backward(&[grad]);
        let remix = disco.node_by_name("disco.remix").unwrap();
        let gnorm: f32 = disco
            .node(remix)
            .layer()
            .params()
            .iter()
            .map(|p| p.grad.norm_sq())
            .sum();
        assert!(gnorm > 0.0);
    }
}
