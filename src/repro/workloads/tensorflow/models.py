"""The four evaluated networks (paper Section 3.1).

* VGG-19 and ResNet-v2-152 are encoded exactly from their published
  architectures (VGG: 16 convs + 3 FC = 19 GEMM ops; ResNet-v2-152:
  bottleneck stages [3, 8, 36, 3] -> 156 Conv2D ops, matching the
  paper's count in Section 5.3).
* Inception-ResNet-v2 is encoded block-by-block at slightly coarser
  granularity (each Inception branch becomes its equivalent convs).
* Residual-GRU (Toderici et al. full-resolution image compression) is
  approximated as its convolutional-GRU gate convolutions unrolled over
  iterations on a 320x240 input; each GRU layer contributes three gate
  convolutions per step.

Only aggregate GEMM shapes matter for the data-movement analysis, so the
coarser encodings preserve the relevant behaviour (documented in
DESIGN.md).
"""

from __future__ import annotations

from repro.core.workload import shared_in_run
from repro.workloads.tensorflow.network import ConvLayer, FcLayer, Network


def _conv(name, hw, in_c, out_c, k, stride=1):
    pad = k // 2
    return ConvLayer(
        name=name, in_h=hw[0], in_w=hw[1], in_c=in_c, out_c=out_c,
        kernel=k, stride=stride, padding=pad,
    )


def vgg19() -> Network:
    """VGG-19 [131]: 16 3x3 convolutions + 3 fully-connected layers."""
    layers = []
    spec = [
        (224, 3, 64, 2),
        (112, 64, 128, 2),
        (56, 128, 256, 4),
        (28, 256, 512, 4),
        (14, 512, 512, 4),
    ]
    for size, in_c, out_c, count in spec:
        c = in_c
        for i in range(count):
            layers.append(_conv("conv%d_%d" % (size, i), (size, size), c, out_c, 3))
            c = out_c
    layers.append(FcLayer("fc6", 7 * 7 * 512, 4096))
    layers.append(FcLayer("fc7", 4096, 4096))
    layers.append(FcLayer("fc8", 4096, 1000))
    return Network(name="VGG-19", layers=tuple(layers))


def resnet_v2_152() -> Network:
    """ResNet-v2-152 [62]: bottleneck stages [3, 8, 36, 3] -> 156 convs."""
    layers = [_conv("conv1", (224, 224), 3, 64, 7, stride=2)]
    stages = [
        (56, 64, 3),
        (28, 128, 8),
        (14, 256, 36),
        (7, 512, 3),
    ]
    in_c = 64
    for size, c, blocks in stages:
        for b in range(blocks):
            prefix = "s%d_b%d" % (size, b)
            if b == 0:
                # Projection shortcut into the new channel width.
                layers.append(_conv(prefix + "_proj", (size, size), in_c, 4 * c, 1))
            layers.append(_conv(prefix + "_1x1a", (size, size), in_c if b == 0 else 4 * c, c, 1))
            layers.append(_conv(prefix + "_3x3", (size, size), c, c, 3))
            layers.append(_conv(prefix + "_1x1b", (size, size), c, 4 * c, 1))
        in_c = 4 * c
    layers.append(FcLayer("logits", 2048, 1001))
    return Network(name="ResNet-V2-152", layers=tuple(layers))


def inception_resnet_v2() -> Network:
    """Inception-ResNet-v2 [137], block-wise encoding."""
    layers = [
        _conv("stem1", (299, 299), 3, 32, 3, stride=2),
        _conv("stem2", (149, 149), 32, 32, 3),
        _conv("stem3", (149, 149), 32, 64, 3),
        _conv("stem4", (74, 74), 64, 80, 1),
        _conv("stem5", (74, 74), 80, 192, 3),
        _conv("stem6", (36, 36), 192, 320, 3, stride=2),
    ]
    # 10x Inception-ResNet-A at 35x35 (base 320): branches 1x1-32,
    # 1x1-32 + 3x3-32, 1x1-32 + 3x3-48 + 3x3-64, then 1x1-384 projection.
    for i in range(10):
        p = "a%d" % i
        layers += [
            _conv(p + "_b0", (35, 35), 320, 32, 1),
            _conv(p + "_b1a", (35, 35), 320, 32, 1),
            _conv(p + "_b1b", (35, 35), 32, 32, 3),
            _conv(p + "_b2a", (35, 35), 320, 32, 1),
            _conv(p + "_b2b", (35, 35), 32, 48, 3),
            _conv(p + "_b2c", (35, 35), 48, 64, 3),
            _conv(p + "_proj", (35, 35), 128, 320, 1),
        ]
    layers.append(_conv("redA", (35, 35), 320, 1088, 3, stride=2))
    # 20x Inception-ResNet-B at 17x17 (base 1088).
    for i in range(20):
        p = "b%d" % i
        layers += [
            _conv(p + "_b0", (17, 17), 1088, 192, 1),
            _conv(p + "_b1a", (17, 17), 1088, 128, 1),
            _conv(p + "_b1b", (17, 17), 128, 192, 3),
            _conv(p + "_proj", (17, 17), 384, 1088, 1),
        ]
    layers.append(_conv("redB", (17, 17), 1088, 2080, 3, stride=2))
    # 10x Inception-ResNet-C at 8x8 (base 2080).
    for i in range(10):
        p = "c%d" % i
        layers += [
            _conv(p + "_b0", (8, 8), 2080, 192, 1),
            _conv(p + "_b1a", (8, 8), 2080, 192, 1),
            _conv(p + "_b1b", (8, 8), 192, 256, 3),
            _conv(p + "_proj", (8, 8), 448, 2080, 1),
        ]
    layers.append(_conv("final", (8, 8), 2080, 1536, 1))
    layers.append(FcLayer("logits", 1536, 1001))
    return Network(name="Inception-ResNet", layers=tuple(layers))


def residual_gru(iterations: int = 16) -> Network:
    """Residual-GRU image compression [141] on one 32x32 patch.

    The Toderici et al. network compresses images patch-by-patch:
    encoder (input conv + 3 conv-GRU layers), binarizer, decoder (conv +
    4 conv-GRU layers + reconstruction), iterated ``iterations`` times on
    the residual.  Each conv-GRU step costs three gate convolutions.
    Because the spatial extent is tiny (M of the lowered GEMM is 16-256)
    while the hidden states are wide, the GEMMs are weight-dominated --
    gemmlowp re-packs the weight matrix on every call, which is why this
    network is packing-heavy in Figure 6.
    """
    layers = [_conv("enc_in", (32, 32), 3, 64, 3, stride=2)]
    enc_gru = [(16, 16, 64, 256), (8, 8, 256, 512), (4, 4, 512, 512)]
    dec_gru = [(4, 4, 512, 512), (8, 8, 512, 512), (16, 16, 512, 256), (32, 32, 256, 128)]
    for step in range(iterations):
        for li, (h, w, in_c, hidden) in enumerate(enc_gru):
            for gate in ("z", "r", "h"):
                layers.append(
                    _conv("it%d_enc%d_%s" % (step, li, gate), (h, w), in_c + hidden, hidden, 3)
                )
        layers.append(_conv("it%d_binarizer" % step, (4, 4), 512, 32, 1))
        layers.append(_conv("it%d_dec_in" % step, (4, 4), 32, 512, 1))
        for li, (h, w, in_c, hidden) in enumerate(dec_gru):
            for gate in ("z", "r", "h"):
                layers.append(
                    _conv("it%d_dec%d_%s" % (step, li, gate), (h, w), in_c + hidden, hidden, 3)
                )
        layers.append(_conv("it%d_recon" % step, (32, 32), 128, 3, 1))
    return Network(name="Residual-GRU", layers=tuple(layers))


@shared_in_run
def all_models() -> list[Network]:
    """The four networks in the paper's figure order."""
    return [resnet_v2_152(), vgg19(), residual_gru(), inception_resnet_v2()]
