//! Layer-by-layer execution of a network's top-level stack, with one span
//! per `Layer::forward`/`Layer::backward` call, plus the per-layer forward
//! profile (`nn.*_ms`, `core.act_*`, `tensor.*_gflops`).

use crate::spans;
use fitact_nn::spec::LayerSpec;
use fitact_nn::{Mode, Network};
use fitact_tensor::matmul::{matmul_into, serial_scope, Layout};
use fitact_tensor::Tensor;
use std::time::Instant;

/// What a top-level layer is, as far as the per-layer metrics care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Conv { in_channels: usize, kernel: usize },
    Linear { in_features: usize },
    Pool,
    Norm,
    Act,
    Reshape,
}

impl Kind {
    pub fn forward_span(self) -> &'static str {
        match self {
            Kind::Conv { .. } => "nn.conv",
            Kind::Linear { .. } => "nn.linear",
            Kind::Pool => "nn.pool",
            Kind::Norm => "nn.norm",
            Kind::Act => "core.act",
            Kind::Reshape => "nn.reshape",
        }
    }

    pub fn backward_span(self) -> &'static str {
        match self {
            Kind::Conv { .. } => "nn.conv_bwd",
            Kind::Linear { .. } => "nn.linear_bwd",
            Kind::Pool => "nn.pool_bwd",
            Kind::Norm => "nn.norm_bwd",
            Kind::Act => "core.act_bwd",
            Kind::Reshape => "nn.reshape_bwd",
        }
    }

    /// Multiply-add FLOPs of one call, from the layer spec and the output
    /// shape (`[batch, oc, oh, ow]` or `[batch, out]`).
    pub fn flops(self, output: &[usize]) -> f64 {
        let n: f64 = output.iter().map(|&d| d as f64).product();
        match self {
            Kind::Conv {
                in_channels,
                kernel,
            } => 2.0 * n * (in_channels * kernel * kernel) as f64,
            Kind::Linear { in_features } => 2.0 * n * in_features as f64,
            _ => 0.0,
        }
    }
}

/// The kinds of a network's top-level layers, in forward order.
pub fn kinds(network: &Network) -> Result<Vec<Kind>, String> {
    network
        .root()
        .layers()
        .iter()
        .map(|layer| {
            let spec = layer.spec().map_err(|e| format!("layer spec: {e}"))?;
            Ok(match spec {
                LayerSpec::Conv2d {
                    in_channels,
                    kernel,
                    ..
                } => Kind::Conv {
                    in_channels,
                    kernel,
                },
                LayerSpec::Linear { in_features, .. } => Kind::Linear { in_features },
                LayerSpec::MaxPool2d { .. } | LayerSpec::GlobalAvgPool => Kind::Pool,
                LayerSpec::BatchNorm2d { .. } => Kind::Norm,
                LayerSpec::Activation { .. } => Kind::Act,
                _ => Kind::Reshape,
            })
        })
        .collect()
}

/// Per-kind time and FLOPs of layer-by-layer passes.
#[derive(Debug, Default, Clone)]
pub struct KindTotals {
    pub ns: [u64; 6],
    pub flops: [f64; 6],
}

fn slot(kind: Kind) -> usize {
    match kind {
        Kind::Conv { .. } => 0,
        Kind::Linear { .. } => 1,
        Kind::Pool => 2,
        Kind::Norm => 3,
        Kind::Act => 4,
        Kind::Reshape => 5,
    }
}

impl KindTotals {
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
    pub fn conv_ns(&self) -> u64 {
        self.ns[0]
    }
    pub fn linear_ns(&self) -> u64 {
        self.ns[1]
    }
    pub fn pool_ns(&self) -> u64 {
        self.ns[2]
    }
    pub fn norm_ns(&self) -> u64 {
        self.ns[3]
    }
    pub fn act_ns(&self) -> u64 {
        self.ns[4]
    }
    pub fn conv_flops(&self) -> f64 {
        self.flops[0]
    }
    pub fn linear_flops(&self) -> f64 {
        self.flops[1]
    }
}

/// `Sequential::forward_from(from, x, mode)` one top-level layer at a time,
/// each call in its own span.
pub fn forward_from(
    network: &mut Network,
    kinds: &[Kind],
    from: usize,
    input: &Tensor,
    mode: Mode,
    id: u64,
    totals: &mut KindTotals,
) -> Result<Tensor, String> {
    let layers = network.root_mut().layers_mut();
    let mut x: Option<Tensor> = None;
    for (layer, &kind) in layers[from..].iter_mut().zip(&kinds[from..]) {
        let t0 = Instant::now();
        let _span = spans::enter(kind.forward_span(), id);
        let out = layer
            .forward(x.as_ref().unwrap_or(input), mode)
            .map_err(|e| format!("forward: {e}"))?;
        totals.ns[slot(kind)] += t0.elapsed().as_nanos() as u64;
        totals.flops[slot(kind)] += kind.flops(out.dims());
        x = Some(out);
    }
    Ok(x.unwrap_or_else(|| input.clone()))
}

/// `Sequential::backward` one top-level layer at a time, each call in its
/// own span.
pub fn backward(
    network: &mut Network,
    kinds: &[Kind],
    grad: &Tensor,
    id: u64,
    totals: &mut KindTotals,
) -> Result<Tensor, String> {
    let mut g = grad.clone();
    for (layer, &kind) in network.root_mut().layers_mut().iter_mut().zip(kinds).rev() {
        let t0 = Instant::now();
        let _span = spans::enter(kind.backward_span(), id);
        g = layer.backward(&g).map_err(|e| format!("backward: {e}"))?;
        totals.ns[slot(kind)] += t0.elapsed().as_nanos() as u64;
    }
    Ok(g)
}

/// Per-forward means of a layer-by-layer profile.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    pub forwards: u64,
    pub totals: KindTotals,
}

impl Profile {
    fn per_call_ms(&self, ns: u64) -> f64 {
        ns as f64 / self.forwards.max(1) as f64 / 1e6
    }
    pub fn forward_ms(&self) -> f64 {
        self.per_call_ms(self.totals.total_ns())
    }
    pub fn conv_ms(&self) -> f64 {
        self.per_call_ms(self.totals.conv_ns())
    }
    pub fn linear_ms(&self) -> f64 {
        self.per_call_ms(self.totals.linear_ns())
    }
    pub fn pool_ms(&self) -> f64 {
        self.per_call_ms(self.totals.pool_ns())
    }
    pub fn norm_ms(&self) -> f64 {
        self.per_call_ms(self.totals.norm_ns())
    }
    pub fn act_ms(&self) -> f64 {
        self.per_call_ms(self.totals.act_ns())
    }
    pub fn act_share(&self) -> f64 {
        self.totals.act_ns() as f64 / self.totals.total_ns().max(1) as f64
    }
    pub fn conv_gflops(&self) -> f64 {
        gflops(self.totals.conv_flops(), self.totals.conv_ns())
    }
    pub fn linear_gflops(&self) -> f64 {
        gflops(self.totals.linear_flops(), self.totals.linear_ns())
    }
}

fn gflops(flops: f64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        flops / ns as f64
    }
}

/// Times every top-level `Layer::forward` in sequence on `batch`-row slices
/// of `inputs` (eval mode, on the calling thread) for at least `min_secs`,
/// checking each layer-by-layer output against `Network::forward` bit for
/// bit.
pub fn profile(
    network: &mut Network,
    kinds: &[Kind],
    inputs: &Tensor,
    batch: usize,
    min_secs: f64,
) -> Result<Profile, String> {
    let rows = inputs.dims()[0];
    let mut staging = Tensor::default();
    let mut profile = Profile::default();
    let started = Instant::now();
    let mut start = 0usize;
    while profile.forwards < 3 || started.elapsed().as_secs_f64() < min_secs {
        let end = (start + batch).min(rows);
        fitact_nn::copy_batch_into(inputs, start, end, &mut staging).map_err(|e| e.to_string())?;
        let expected = network
            .forward(&staging, Mode::Eval)
            .map_err(|e| format!("forward: {e}"))?;
        let _span = spans::enter("bench.forward", profile.forwards);
        let got = forward_from(
            network,
            kinds,
            0,
            &staging,
            Mode::Eval,
            profile.forwards,
            &mut profile.totals,
        )?;
        if !same_bits(expected.as_slice(), got.as_slice()) {
            return Err("layer-by-layer forward differs from Network::forward".into());
        }
        profile.forwards += 1;
        start = if end >= rows { 0 } else { end };
    }
    Ok(profile)
}

pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Single-thread blocked `matmul` at 256³ (median of repeated calls), in
/// GFLOP/s: the reference the per-layer GFLOP/s figures compare against.
pub fn peak_gflops() -> f64 {
    const N: usize = 256;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 97) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 89) as f32 * 0.01).collect();
    let mut out = vec![0f32; N * N];
    let mut times = Vec::new();
    serial_scope(|| {
        for rep in 0..24 {
            let _span = spans::enter("tensor.matmul", rep);
            let t0 = Instant::now();
            matmul_into(Layout::Nn, &a, &b, &mut out, N, N, N, false);
            if rep >= 4 {
                times.push(t0.elapsed().as_secs_f64());
            }
        }
    });
    2.0 * (N * N * N) as f64 / crate::stats::median(&mut times) / 1e9
}
