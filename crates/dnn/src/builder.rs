//! Incremental network construction with eager shape inference.
//!
//! [`NetworkBuilder`] is the only way to create a [`Network`]; every node
//! is validated and shape-inferred as it is added, so an invalid
//! construction fails at the exact offending call. Besides the primitive
//! operators it offers the composite blocks that mobile networks are made
//! of: depthwise-separable convolutions, inverted bottlenecks (MBConv),
//! squeeze-and-excite gates, and SqueezeNet fire modules.

use crate::error::DnnError;
use crate::graph::{infer_shape, Network, Node, NodeId};
use crate::op::{Activation, Conv2dParams, DepthwiseConv2dParams, Op, PoolParams};
use crate::tensor::TensorShape;

/// Incrementally builds a validated [`Network`].
///
/// ```
/// use gdcm_dnn::{Activation, NetworkBuilder, TensorShape};
///
/// # fn main() -> Result<(), gdcm_dnn::DnnError> {
/// let mut b = NetworkBuilder::new("example");
/// let x = b.input(TensorShape::new(32, 32, 3));
/// let x = b.conv2d_act(x, 8, 3, 1, Activation::Relu)?;
/// let net = b.build(x)?;
/// assert_eq!(net.layer_count(), 2); // conv + activation
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    nodes: Vec<Node>,
}

impl NetworkBuilder {
    /// Creates an empty builder for a network with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Adds the network input placeholder and returns its id.
    pub fn input(&mut self, shape: TensorShape) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            op: Op::Input { shape },
            inputs: Vec::new(),
            output_shape: shape,
        });
        id
    }

    /// Adds an arbitrary operator consuming the given inputs.
    ///
    /// # Errors
    ///
    /// Fails when an input id is unknown, the arity is wrong, the
    /// hyper-parameters are invalid, or shapes are incompatible.
    pub fn push(&mut self, op: Op, inputs: &[NodeId]) -> Result<NodeId, DnnError> {
        let mut shapes = Vec::with_capacity(inputs.len());
        for &i in inputs {
            let node = self.nodes.get(i.0).ok_or(DnnError::UnknownNode(i))?;
            shapes.push(node.output_shape);
        }
        let output_shape = infer_shape(&op, &shapes)?;
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            op,
            inputs: inputs.to_vec(),
            output_shape,
        });
        Ok(id)
    }

    /// Output shape of an already-added node.
    pub fn shape(&self, id: NodeId) -> Option<TensorShape> {
        self.nodes.get(id.0).map(|n| n.output_shape)
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- primitive helpers -------------------------------------------------

    /// Dense convolution with `SAME` padding.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn conv2d(
        &mut self,
        x: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
    ) -> Result<NodeId, DnnError> {
        self.push(
            Op::Conv2d(Conv2dParams::dense(out_channels, kernel, stride)),
            &[x],
        )
    }

    /// Dense convolution followed by an activation.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn conv2d_act(
        &mut self,
        x: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        act: Activation,
    ) -> Result<NodeId, DnnError> {
        let c = self.conv2d(x, out_channels, kernel, stride)?;
        self.push(Op::Activation(act), &[c])
    }

    /// Grouped convolution with `SAME` padding.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn grouped_conv2d(
        &mut self,
        x: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        groups: usize,
    ) -> Result<NodeId, DnnError> {
        self.push(
            Op::Conv2d(Conv2dParams {
                groups,
                ..Conv2dParams::dense(out_channels, kernel, stride)
            }),
            &[x],
        )
    }

    /// Depthwise convolution with `SAME` padding and multiplier 1.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn depthwise(
        &mut self,
        x: NodeId,
        kernel: usize,
        stride: usize,
    ) -> Result<NodeId, DnnError> {
        self.push(
            Op::DepthwiseConv2d(DepthwiseConv2dParams::new(kernel, stride)),
            &[x],
        )
    }

    /// Element-wise activation.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn activation(&mut self, x: NodeId, act: Activation) -> Result<NodeId, DnnError> {
        self.push(Op::Activation(act), &[x])
    }

    /// Max pooling with `VALID` padding.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn max_pool(
        &mut self,
        x: NodeId,
        kernel: usize,
        stride: usize,
    ) -> Result<NodeId, DnnError> {
        self.push(Op::MaxPool2d(PoolParams::new(kernel, stride)), &[x])
    }

    /// Average pooling with `VALID` padding.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn avg_pool(
        &mut self,
        x: NodeId,
        kernel: usize,
        stride: usize,
    ) -> Result<NodeId, DnnError> {
        self.push(Op::AvgPool2d(PoolParams::new(kernel, stride)), &[x])
    }

    /// Global average pooling to a `1x1xC` vector.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn global_avg_pool(&mut self, x: NodeId) -> Result<NodeId, DnnError> {
        self.push(Op::GlobalAvgPool, &[x])
    }

    /// Fully-connected layer over the flattened input.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn fully_connected(&mut self, x: NodeId, out_features: usize) -> Result<NodeId, DnnError> {
        self.push(
            Op::FullyConnected {
                out_features,
                bias: true,
            },
            &[x],
        )
    }

    /// Residual addition of two equal-shaped tensors.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, DnnError> {
        self.push(Op::Add, &[a, b])
    }

    /// Channel-axis concatenation.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn concat(&mut self, inputs: &[NodeId]) -> Result<NodeId, DnnError> {
        self.push(Op::Concat, inputs)
    }

    // ---- composite blocks --------------------------------------------------

    /// Depthwise-separable convolution (MobileNetV1 block):
    /// depthwise `kxk` + activation, then pointwise `1x1` + activation.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn separable_conv(
        &mut self,
        x: NodeId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        act: Activation,
    ) -> Result<NodeId, DnnError> {
        let dw = self.depthwise(x, kernel, stride)?;
        let dw = self.activation(dw, act)?;
        let pw = self.conv2d(dw, out_channels, 1, 1)?;
        self.activation(pw, act)
    }

    /// Inverted bottleneck (MBConv) block, the core motif of
    /// MobileNetV2/V3 and hardware-aware NAS spaces:
    /// expand `1x1` (+act) → depthwise `kxk` (+act) → optional SE gate →
    /// project `1x1` (linear) → residual add when stride is 1 and channel
    /// counts match.
    ///
    /// An expansion of 1 skips the expand convolution, as in the first
    /// MobileNetV2 block.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    // The argument list mirrors the MBConv hyper-parameter tuple from the
    // paper's search space; bundling them into a struct would only move
    // the same seven knobs behind a second name.
    #[allow(clippy::too_many_arguments)]
    pub fn inverted_bottleneck(
        &mut self,
        x: NodeId,
        expansion: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        act: Activation,
        se: bool,
    ) -> Result<NodeId, DnnError> {
        let in_shape = self.shape(x).ok_or(DnnError::UnknownNode(x))?;
        let expanded = in_shape.c * expansion.max(1);

        let mut h = x;
        if expansion > 1 {
            h = self.conv2d(h, expanded, 1, 1)?;
            h = self.activation(h, act)?;
        }
        h = self.depthwise(h, kernel, stride)?;
        h = self.activation(h, act)?;
        if se {
            h = self.squeeze_excite(h, 4)?;
        }
        h = self.conv2d(h, out_channels, 1, 1)?; // linear projection
        if stride == 1 && in_shape.c == out_channels {
            h = self.add(h, x)?;
        }
        Ok(h)
    }

    /// Squeeze-and-excite gate: global pool → FC reduce (`/ratio`) + ReLU →
    /// FC expand + hard-sigmoid → channel-wise multiply.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn squeeze_excite(&mut self, x: NodeId, ratio: usize) -> Result<NodeId, DnnError> {
        let shape = self.shape(x).ok_or(DnnError::UnknownNode(x))?;
        let squeezed = (shape.c / ratio).max(1);
        let pooled = self.global_avg_pool(x)?;
        let fc1 = self.fully_connected(pooled, squeezed)?;
        let fc1 = self.activation(fc1, Activation::Relu)?;
        let fc2 = self.fully_connected(fc1, shape.c)?;
        let gate = self.activation(fc2, Activation::HSigmoid)?;
        self.push(Op::Multiply, &[x, gate])
    }

    /// SqueezeNet fire module: squeeze `1x1` (+ReLU), then parallel expand
    /// `1x1` and `3x3` branches (+ReLU) concatenated on channels.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn fire_module(
        &mut self,
        x: NodeId,
        squeeze: usize,
        expand1: usize,
        expand3: usize,
    ) -> Result<NodeId, DnnError> {
        let s = self.conv2d_act(x, squeeze, 1, 1, Activation::Relu)?;
        let e1 = self.conv2d_act(s, expand1, 1, 1, Activation::Relu)?;
        let e3 = self.conv2d_act(s, expand3, 3, 1, Activation::Relu)?;
        self.concat(&[e1, e3])
    }

    /// Classifier head: global average pool followed by a fully-connected
    /// layer with `classes` outputs.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; see [`NetworkBuilder::push`].
    pub fn classifier(&mut self, x: NodeId, classes: usize) -> Result<NodeId, DnnError> {
        let pooled = self.global_avg_pool(x)?;
        self.fully_connected(pooled, classes)
    }

    /// Finalizes the network with the given output node.
    ///
    /// # Errors
    ///
    /// Fails when the output id is unknown or the graph lacks an input.
    pub fn build(self, output: NodeId) -> Result<Network, DnnError> {
        Network::from_parts(self.name, self.nodes, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> TensorShape {
        TensorShape::new(56, 56, 24)
    }

    #[test]
    fn inverted_bottleneck_with_residual() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(shape());
        // stride 1 and same channels -> residual add present
        let y = b
            .inverted_bottleneck(x, 6, 24, 3, 1, Activation::Relu6, false)
            .unwrap();
        let net = b.build(y).unwrap();
        assert!(net.nodes().iter().any(|n| matches!(n.op, Op::Add)));
        assert_eq!(net.output().output_shape, shape());
    }

    #[test]
    fn inverted_bottleneck_without_residual_on_stride2() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(shape());
        let y = b
            .inverted_bottleneck(x, 6, 32, 5, 2, Activation::HSwish, false)
            .unwrap();
        let net = b.build(y).unwrap();
        assert!(!net.nodes().iter().any(|n| matches!(n.op, Op::Add)));
        assert_eq!(net.output().output_shape, TensorShape::new(28, 28, 32));
    }

    #[test]
    fn expansion_one_skips_expand_conv() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(shape());
        let before = b.len();
        b.inverted_bottleneck(x, 1, 16, 3, 1, Activation::Relu6, false)
            .unwrap();
        // depthwise + act + project = 3 nodes (no residual: 24 != 16)
        assert_eq!(b.len() - before, 3);
    }

    #[test]
    fn se_block_shapes() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(TensorShape::new(14, 14, 96));
        let y = b.squeeze_excite(x, 4).unwrap();
        assert_eq!(b.shape(y).unwrap(), TensorShape::new(14, 14, 96));
        let net = b.build(y).unwrap();
        assert!(net.nodes().iter().any(|n| matches!(n.op, Op::Multiply)));
    }

    #[test]
    fn fire_module_channel_math() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(TensorShape::new(55, 55, 96));
        let y = b.fire_module(x, 16, 64, 64).unwrap();
        assert_eq!(b.shape(y).unwrap(), TensorShape::new(55, 55, 128));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = NetworkBuilder::new("t");
        let _ = b.input(shape());
        let bogus = NodeId(99);
        assert!(matches!(
            b.conv2d(bogus, 8, 3, 1),
            Err(DnnError::UnknownNode(_))
        ));
    }

    #[test]
    fn build_requires_input() {
        let b = NetworkBuilder::new("t");
        assert!(b.build(NodeId(0)).is_err());
    }

    #[test]
    fn build_rejects_unknown_output() {
        let mut b = NetworkBuilder::new("t");
        let _ = b.input(shape());
        assert!(matches!(b.build(NodeId(42)), Err(DnnError::UnknownNode(_))));
    }

    #[test]
    fn separable_conv_structure() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(shape());
        let y = b.separable_conv(x, 48, 3, 2, Activation::Relu).unwrap();
        let net = b.build(y).unwrap();
        let kinds: Vec<_> = net.nodes().iter().map(|n| n.op.kind()).collect();
        use crate::op::OpKind as K;
        assert_eq!(
            kinds,
            vec![
                K::Input,
                K::DepthwiseConv2d,
                K::Activation,
                K::Conv2d,
                K::Activation
            ]
        );
        assert_eq!(net.output().output_shape, TensorShape::new(28, 28, 48));
    }

    #[test]
    fn display_lists_all_nodes() {
        let mut b = NetworkBuilder::new("show");
        let x = b.input(shape());
        let y = b.conv2d(x, 8, 3, 1).unwrap();
        let net = b.build(y).unwrap();
        let s = net.to_string();
        assert!(s.contains("show"));
        assert!(s.contains("Conv2d"));
    }

    #[test]
    fn cost_of_small_net_is_consistent() {
        let mut b = NetworkBuilder::new("t");
        let x = b.input(TensorShape::new(32, 32, 3));
        let y = b.conv2d_act(x, 16, 3, 1, Activation::Relu).unwrap();
        let z = b.classifier(y, 10).unwrap();
        let net = b.build(z).unwrap();
        let cost = net.cost();
        let conv_macs = 32 * 32 * 16 * 3 * 3 * 3;
        let fc_macs = 16 * 10;
        assert_eq!(cost.total_macs, (conv_macs + fc_macs) as u64);
        assert_eq!(cost.per_node.len(), net.len());
    }
}
