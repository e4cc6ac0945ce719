"""Unit tests for layers, im2col convolution, and the inference engine."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.workload import WorkloadFunction
from repro.sim.profile import KernelProfile
from repro.workloads.tensorflow.gemm import profile_gemm
from repro.workloads.tensorflow.models import all_models
from repro.workloads.tensorflow.network import (
    ConvLayer,
    FcLayer,
    Network,
    conv2d_quantized,
    im2col,
    infer,
    network_functions,
)
from repro.workloads.tensorflow.packing import profile_packing, profile_unpacking
from repro.workloads.tensorflow.quantization import (
    profile_quantization,
    profile_requantization,
)
from tests.sim.oracle import merged_pairwise


def float_conv_reference(x, w, stride=1, padding=0):
    """Direct float convolution for comparison."""
    k = w.shape[0]
    if padding:
        x = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    out_h = (x.shape[0] - k) // stride + 1
    out_w = (x.shape[1] - k) // stride + 1
    out = np.zeros((out_h, out_w, w.shape[3]), dtype=np.float64)
    for oy in range(out_h):
        for ox in range(out_w):
            patch = x[oy * stride : oy * stride + k, ox * stride : ox * stride + k, :]
            out[oy, ox] = np.tensordot(patch, w, axes=([0, 1, 2], [0, 1, 2]))
    return out


class TestLayers:
    def test_conv_output_dims(self):
        layer = ConvLayer("c", 224, 224, 3, 64, kernel=3, stride=1, padding=1)
        assert layer.out_h == 224 and layer.out_w == 224

    def test_conv_stride(self):
        layer = ConvLayer("c", 224, 224, 3, 64, kernel=7, stride=2, padding=3)
        assert layer.out_h == 112

    def test_gemm_dims(self):
        layer = ConvLayer("c", 56, 56, 64, 128, kernel=3, padding=1)
        assert layer.gemm_dims == (56 * 56, 9 * 64, 128)

    def test_macs(self):
        layer = FcLayer("fc", 100, 10)
        assert layer.macs == 1000
        assert layer.gemm_dims == (1, 100, 10)

    def test_network_counts(self):
        net = Network("n", (ConvLayer("c", 8, 8, 3, 4, 3, padding=1),
                            FcLayer("f", 256, 10)))
        assert net.num_conv2d == 1
        assert net.total_macs > 0


class TestIm2col:
    def test_shape(self):
        x = np.arange(5 * 5 * 2, dtype=np.uint8).reshape(5, 5, 2)
        patches = im2col(x, kernel=3)
        assert patches.shape == (9, 18)

    def test_first_patch_content(self):
        x = np.arange(4 * 4 * 1, dtype=np.uint8).reshape(4, 4, 1)
        patches = im2col(x, kernel=2)
        assert list(patches[0]) == [0, 1, 4, 5]

    def test_stride(self):
        x = np.zeros((6, 6, 1), dtype=np.uint8)
        assert im2col(x, kernel=2, stride=2).shape[0] == 9

    def test_padding(self):
        x = np.zeros((4, 4, 1), dtype=np.uint8)
        assert im2col(x, kernel=3, padding=1).shape[0] == 16

    def test_too_large_kernel(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((2, 2, 1), dtype=np.uint8), kernel=5)

    def test_non_3d_rejected(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((4, 4), dtype=np.uint8), kernel=2)


class TestConv2dQuantized:
    def test_matches_float_reference(self, rng):
        x = rng.uniform(-1, 1, size=(10, 10, 3)).astype(np.float32)
        w = rng.uniform(-1, 1, size=(3, 3, 3, 4)).astype(np.float32)
        ours = conv2d_quantized(x, w, padding=1)
        exact = float_conv_reference(x, w, padding=1)
        # Two quantizations (input, output): error within a few output steps.
        scale = (exact.max() - exact.min()) / 255.0
        assert np.abs(ours - exact).max() < 6 * scale + 0.1

    def test_output_shape_with_stride(self, rng):
        x = rng.uniform(-1, 1, size=(8, 8, 2)).astype(np.float32)
        w = rng.uniform(-1, 1, size=(2, 2, 2, 5)).astype(np.float32)
        assert conv2d_quantized(x, w, stride=2).shape == (4, 4, 5)

    def test_channel_mismatch(self, rng):
        x = np.zeros((8, 8, 2), dtype=np.float32)
        w = np.zeros((3, 3, 3, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            conv2d_quantized(x, w)

    def test_non_square_kernel_rejected(self):
        with pytest.raises(ValueError):
            conv2d_quantized(
                np.zeros((8, 8, 1), dtype=np.float32),
                np.zeros((3, 2, 1, 4), dtype=np.float32),
            )


class TestInfer:
    def test_small_network_end_to_end(self, rng):
        net = Network(
            "tiny",
            (
                ConvLayer("c1", 8, 8, 3, 4, kernel=3, padding=1),
                ConvLayer("c2", 8, 8, 4, 8, kernel=3, padding=1),
                FcLayer("fc", 8 * 8 * 8, 10),
            ),
        )
        x = rng.uniform(0, 1, size=(8, 8, 3)).astype(np.float32)
        out = infer(net, x)
        assert out.shape == (1, 10)
        assert np.isfinite(out).all()

    def test_fc_dimension_check(self, rng):
        net = Network("bad", (FcLayer("fc", 999, 10),))
        with pytest.raises(ValueError):
            infer(net, rng.uniform(size=(4, 4, 3)).astype(np.float32))


class TestNetworkFunctions:
    def test_four_buckets(self):
        net = Network("n", (ConvLayer("c", 16, 16, 3, 8, 3, padding=1),))
        names = [f.name for f in network_functions(net)]
        assert names == ["packing", "quantization", "conv2d_matmul", "other"]

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            network_functions(Network("empty", ()))

    def test_quantization_invocations_twice_per_conv(self):
        net = Network("n", (ConvLayer("c", 16, 16, 3, 8, 3, padding=1),) * 3)
        fns = {f.name: f for f in network_functions(net)}
        assert fns["quantization"].invocations == 6


def reference_network_functions(network):
    """Oracle for ``network_functions``: every layer profiled from scratch.

    The production path profiles each distinct layer shape once and
    folds each bucket in one pass; this one re-profiles every layer and
    merges it into its bucket with the test-side pairwise merge, so the
    two must agree bit for bit.
    """
    pack_profile = quant_profile = gemm_profile = None
    other_elements = 0.0
    for layer in network.layers:
        m, k, n = layer.gemm_dims
        lp = merged_pairwise(
            profile_packing(float(m * k + k * n)),
            profile_unpacking(float(m * n)),
            name="packing",
        )
        lq = merged_pairwise(
            profile_quantization(float(layer.input_elements)),
            profile_requantization(float(m * n)),
            name="quantization",
        )
        lg = profile_gemm(m, k, n)
        pack_profile = (
            lp if pack_profile is None else merged_pairwise(pack_profile, lp, "packing")
        )
        quant_profile = (
            lq if quant_profile is None else merged_pairwise(quant_profile, lq, "quantization")
        )
        gemm_profile = (
            lg if gemm_profile is None else merged_pairwise(gemm_profile, lg, "conv2d_matmul")
        )
        other_elements += layer.output_elements
    other = KernelProfile.streaming(
        name="other",
        bytes_read=other_elements * 4.0,
        bytes_written=other_elements * 4.0,
        ops_per_byte=1.0,
        instruction_overhead=0.3,
        simd_fraction=0.5,
        notes="bias/BN/ReLU/pool/residual element-wise glue",
    )
    return [
        WorkloadFunction(
            "packing",
            pack_profile,
            accelerator_key="packing",
            invocations=max(len(network.layers), 1),
        ),
        WorkloadFunction(
            "quantization",
            quant_profile,
            accelerator_key="quantization",
            invocations=max(2 * network.num_conv2d, 1),
        ),
        WorkloadFunction("conv2d_matmul", gemm_profile),
        WorkloadFunction("other", other),
    ]


@st.composite
def conv_layers(draw):
    kernel = draw(st.integers(1, 5))
    padding = draw(st.integers(0, 2))
    floor = max(kernel - 2 * padding, 1)
    return ConvLayer(
        "conv",
        in_h=draw(st.integers(floor, 32)),
        in_w=draw(st.integers(floor, 32)),
        in_c=draw(st.integers(1, 16)),
        out_c=draw(st.integers(1, 16)),
        kernel=kernel,
        stride=draw(st.integers(1, 3)),
        padding=padding,
    )


fc_layers = st.builds(
    FcLayer, st.just("fc"), st.integers(1, 4096), st.integers(1, 4096)
)


def strided_twin(layer):
    """A stride-2 conv with ``layer``'s GEMM dims but a larger input."""
    return ConvLayer(
        "twin",
        in_h=2 * (layer.out_h - 1) + layer.kernel,
        in_w=2 * (layer.out_w - 1) + layer.kernel,
        in_c=layer.in_c,
        out_c=layer.out_c,
        kernel=layer.kernel,
        stride=2,
    )


@st.composite
def repetitive_networks(draw):
    """Small networks that reuse a few layer shapes in random order.

    Some convs come with a strided twin: same GEMM dims, different input
    size, so a shape key that ignored the input would mix them up.
    """
    shapes = draw(st.lists(st.one_of(conv_layers(), fc_layers), min_size=1, max_size=4))
    twins = [
        strided_twin(layer)
        for layer in shapes
        if isinstance(layer, ConvLayer) and draw(st.booleans())
    ]
    shapes += twins
    picks = draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=16))
    return Network("random", tuple(shapes[i] for i in picks))


class TestNetworkFunctionsOracle:
    @pytest.mark.parametrize("network", all_models(), ids=lambda net: net.name)
    def test_paper_networks_match_per_layer_profiling(self, network):
        assert network_functions(network) == reference_network_functions(network)

    def test_same_gemm_dims_with_different_inputs_stay_apart(self):
        a = ConvLayer("a", 8, 8, 4, 8, kernel=3, padding=1)
        b = strided_twin(a)
        assert a.gemm_dims == b.gemm_dims
        assert a.input_elements != b.input_elements
        network = Network("twins", (a, b, a, b))
        assert network_functions(network) == reference_network_functions(network)

    @given(network=repetitive_networks())
    def test_repeated_shapes_match_per_layer_profiling(self, network):
        assert network_functions(network) == reference_network_functions(network)
