import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from rklab.chains import ChainSpec, RebirthMeasure, build_chain
from plans import five_path_chain, reference_chain


@pytest.fixture(scope="session")
def ref_chain():
    return reference_chain()


@pytest.fixture(scope="session")
def mu_plus(ref_chain):
    mu = RebirthMeasure(weights={1: 1.0})
    mu.validate(ref_chain)
    return mu


@pytest.fixture(scope="session")
def nonuniform_chain():
    # non-uniform measure to catch density-vs-matrix mixups; rates chosen in
    # detailed balance with m = (2, 0.5, 1)
    m = {-1: 2.0, 0: 0.5, 1: 1.0}
    rates = {(-1, 0): 1.0, (0, -1): 4.0, (0, 1): 2.0, (1, 0): 1.0}
    spec = ChainSpec(states=(-1, 0, 1), rates=rates, measure=m, kill_rate=0.7)
    return build_chain(spec)


@pytest.fixture(scope="session")
def five_path():
    return five_path_chain()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _read_png(path):
    """Decode an 8-bit RGB PNG as rklab writes it, checking its structure.

    Returns ``(pixels, chunks)``: an (h, w, 3) uint8 array and the
    ``(tag, body, crc)`` chunks in file order.  Only filter type 0 is
    decoded, which is the one the writer uses on every scanline.
    """
    data = Path(path).read_bytes()
    assert data[:8] == PNG_SIGNATURE
    chunks, pos = [], 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        chunks.append((tag, body, crc))
        pos += 12 + length
    assert chunks[0][0] == b"IHDR" and chunks[-1][0] == b"IEND"
    width, height, depth, colour_type = struct.unpack(">IIBB",
                                                      chunks[0][1][:10])
    assert width > 0 and height > 0
    assert (depth, colour_type) == (8, 2)  # 8-bit RGB
    raw = zlib.decompress(b"".join(b for t, b, _ in chunks if t == b"IDAT"))
    assert len(raw) == height * (1 + 3 * width)
    scanlines = np.frombuffer(raw, np.uint8).reshape(height, 1 + 3 * width)
    assert not scanlines[:, 0].any()
    return scanlines[:, 1:].reshape(height, width, 3), chunks


@pytest.fixture(scope="session")
def read_png():
    return _read_png
