//! Concrete layer implementations.
//!
//! Every layer hand-derives its backward pass; all of them are checked
//! against finite differences in this crate's test suite (see
//! [`crate::gradcheck`]).

mod activation;
mod attention;
mod conv;
mod depthwise;
mod dropout;
mod embedding;
mod linear;
mod masked;
mod norm;
mod pool;
pub(crate) mod reduce;
mod structural;

pub(crate) use activation::{relu, relu_slope};
pub use activation::{Gelu, Relu, Sigmoid, Tanh};
pub use attention::MultiHeadSelfAttention;
pub use conv::Conv2d;
pub use depthwise::{BroadcastMulSpatial, DepthwiseConv2d};
pub use dropout::Dropout;
pub use embedding::{Embedding, PositionalEncoding};
pub use linear::Linear;
pub use masked::{MaskedConv2d, MaskedEmbedding};
pub(crate) use norm::{normalise, DxChannel};
pub use norm::{BatchNorm2d, LayerNorm};
pub(crate) use pool::{avg_pool_2x2, avg_unpool_2x2, tiles_2x2};
pub use pool::{AvgPool2d, ChannelStats, GlobalAvgPool2d, GlobalMaxPool2d, MaxPool2d};
pub use structural::{
    Add, BroadcastMulChannel, Concat, Detach, Flatten, Identity, Input, MeanPoolSeq, Mul,
};
