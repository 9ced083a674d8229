"""Report emission: JSON, CSV, plain-text tables and figure files.

JSON reports contain no timestamps and are serialised with sorted keys, so
identical (config, seed) runs produce byte-identical files regardless of
worker count.  Figures (a z-score chart per identity report, a
ratio-versus-scale curve per sweep) are PNG files next to the report,
rasterised with numpy and encoded by a built-in PNG writer (zlib, no
plotting library).  Rendering runs after the JSON is written and draws no
random numbers; a rendering failure degrades to a warning and never affects
verdicts or exit codes.
"""

from __future__ import annotations

import csv
import logging
import math
import os
import struct
import zlib

import numpy as np

from .diagnostics import SweepResult
from .stats import ComparisonReport, strict_json

log = logging.getLogger("rklab")


def report_table(report: ComparisonReport) -> str:
    lines = [
        f"== {report.test_id}  seed={report.seed}  "
        f"n_lhs={report.n_lhs} n_rhs={report.n_rhs}"
        + (f"  ess={report.ess:.1f}" if report.ess is not None else ""),
        f"{'statistic':<34} {'lhs':>12} {'rhs':>12} {'se':>10} {'z':>8}",
    ]
    for row in report.rows:
        mark = "" if row.gating else "  (info)"
        lines.append(
            f"{row.statistic:<34} {row.lhs:>12.6g} {row.rhs:>12.6g} "
            f"{row.se:>10.3g} {row.z:>8.2f}{mark}"
        )
    verdict = "PASS" if report.verdict else "FAIL"
    lines.append(f"verdict: {verdict} (max |z| = {report.max_abs_z():.2f}, "
                 f"z_max = {report.z_max})")
    return "\n".join(lines)


def sweep_table(sweep: SweepResult) -> str:
    lines = [
        f"== {sweep.sweep_id}  seed={sweep.seed}  replicates={sweep.replicates}",
        f"{'scale':>10} {'median ratio':>14} {'target':>8}",
    ]
    for scale, ratio in zip(sweep.scales, sweep.ratios):
        lines.append(f"{scale:>10.6g} {ratio:>14.6g} {sweep.target:>8.3g}")
    band = "inside" if sweep.within_band else "outside"
    lines.append(
        f"finest-scale median {sweep.finest_median:.4g} is {band} the "
        "informational factor-2 band (not gated)"
    )
    return "\n".join(lines)


def write_report_json(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())


def write_sweep_json(sweep: SweepResult, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(strict_json(sweep.to_dict()))


def write_sweep_csv(sweep: SweepResult, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scale", "statistic", "target", "replicates", "seed"])
        for row in sweep.csv_rows():
            writer.writerow(row)


def write_potentials_csv(pot, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "column", "value"])
        for x in pot.states:
            for y in pot.states:
                writer.writerow([x, y, repr(pot.value(x, y))])


def _figure_path(output_path, suffix):
    stem, _ = os.path.splitext(output_path)
    return f"{stem}_{suffix}.png"


# -- built-in raster figures ------------------------------------------------
#
# Both charts are drawn into a uint8 RGB array and written by ``_write_png``;
# no plotting library is involved.  Text uses a 5x7 bitmap font covering
# printable ASCII (every label rklab produces is ASCII).

_RED = (0xB8, 0x41, 0x3E)
_BLUE = (0x3A, 0x6E, 0xA5)
_GREY = (0x88, 0x88, 0x88)
_DARK = (0x44, 0x44, 0x44)
_INK = (0x22, 0x22, 0x22)
_BAND = (0xE9, 0xEE, 0xF4)  # _BLUE at 12 % opacity over white

# Glyphs for chr(32)..chr(126), five column bytes each, bit 0 the top row.
_FONT_HEX = (
    "000000000000005f00000007000700147f147f14242a7f2a122313086462"
    "36495522500005030000001c2241000041221c00082a1c2a0808083e0808"
    "00503000000808080808006060000020100804023e5149453e00427f4000"
    "42615149462141454b311814127f1027454545393c4a4949300171090503"
    "3649494936064949291e0036360000005636000008142241001414141414"
    "00412214080201510906324979413e7e1111117e7f494949363e41414122"
    "7f4141221c7f494949417f090901013e414151327f0808087f00417f4100"
    "2040413f017f081422417f404040407f0204027f7f0408107f3e4141413e"
    "7f090909063e4151215e7f09192946464949493101017f01013f4040403f"
    "1f2040201f7f2018207f631408146303047804036151494543007f414100"
    "02040810200041417f000402010204404040404000010204002054545478"
    "7f484444383844444420384444487f3854545418087e090102081454543c"
    "7f0804047800447d40002040443d00007f10284400417f40007c04180478"
    "7c0804047838444444387c14141408081414187c7c080404084854545420"
    "043f4440203c4040207c1c2040201c3c4030403c44281028440c5050503c"
    "4464544c44000836410000007f000000413608000201020402"
)
_GLYPHS = np.unpackbits(
    np.frombuffer(bytes.fromhex(_FONT_HEX), np.uint8).reshape(95, 5, 1),
    axis=2, bitorder="little",
)[:, :, :7].transpose(0, 2, 1)  # (glyph, row, column)
_CHAR_W, _CHAR_H = 6, 7  # advance (glyph plus one blank column), height


def _write_png(path, img) -> str:
    """Write an (h, w, 3) uint8 array as an 8-bit RGB PNG without metadata."""
    h, w, _ = img.shape
    scanlines = np.zeros((h, 1 + 3 * w), np.uint8)  # filter byte 0 per row
    scanlines[:, 1:] = img.reshape(h, 3 * w)

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body)))

    with open(path, "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n"
                 + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
                 + chunk(b"IDAT", zlib.compress(scanlines.tobytes(), 9))
                 + chunk(b"IEND", b""))
    return path


def _plot(img, xs, ys, color):
    xs = np.asarray(xs, int)
    ys = np.asarray(ys, int)
    inside = (xs >= 0) & (xs < img.shape[1]) & (ys >= 0) & (ys < img.shape[0])
    img[ys[inside], xs[inside]] = color


def _fill(img, x0, y0, x1, y1, color):
    """Fill the box between two corners, clipped to the image."""
    h, w, _ = img.shape
    xa, xb = sorted(min(max(round(v), 0), w) for v in (x0, x1))
    ya, yb = sorted(min(max(round(v), 0), h) for v in (y0, y1))
    img[ya:yb, xa:xb] = color


def _line(img, x0, y0, x1, y1, color, width=1, dash=0):
    """Straight line with a square brush; ``dash`` alternates on/off runs."""
    n = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
    xs = np.rint(np.linspace(x0, x1, n)).astype(int)
    ys = np.rint(np.linspace(y0, y1, n)).astype(int)
    if dash:
        on = (np.arange(n) // dash) % 2 == 0
        xs, ys = xs[on], ys[on]
    for dx in range(width):
        for dy in range(width):
            _plot(img, xs + dx, ys + dy, color)


def _frame(img, x0, y0, x1, y1):
    for a, b, c, d in ((x0, y0, x1, y0), (x0, y1, x1, y1),
                       (x0, y0, x0, y1), (x1, y0, x1, y1)):
        _line(img, a, b, c, d, _DARK)


def _text_width(s, scale=1):
    return _CHAR_W * scale * len(s)


def _text(img, x, y, s, color, scale=1):
    """Draw ``s`` with its top-left corner at (x, y); non-ASCII shows as '?'."""
    codes = np.frombuffer(s.encode("ascii", "replace"), np.uint8) - 32
    glyphs = np.pad(_GLYPHS[codes], ((0, 0), (0, 0), (0, 1)))
    strip = glyphs.transpose(1, 0, 2).reshape(_CHAR_H, -1)
    ys, xs = np.nonzero(strip.repeat(scale, 0).repeat(scale, 1))
    _plot(img, xs + int(x), ys + int(y), color)


def _ticks(lo, hi, count=6):
    """Round tick values (1, 2 or 5 times a power of ten) inside [lo, hi]."""
    step = 10.0 ** math.floor(math.log10((hi - lo) / count))
    for mult in (1, 2, 5, 10):
        if (hi - lo) / (mult * step) <= count:
            step *= mult
            break
    return [k * step for k in range(math.ceil(lo / step),
                                    math.floor(hi / step) + 1)]


def _draw_report(report: ComparisonReport):
    rows = report.rows
    row_h, panel_w = 14, 560
    labels = [r.statistic for r in rows]
    left = max(map(_text_width, labels), default=0) + 16
    top, bottom = 32, 40
    panel_h = row_h * len(rows)
    img = np.full((top + panel_h + bottom, left + panel_w + 20, 3), 255,
                  np.uint8)

    z = np.array([r.z for r in rows], dtype=float)
    finite = np.abs(z[np.isfinite(z)])
    lim = 1.1 * max(report.z_max, finite.max(initial=0.0)) or 1.0
    z = np.clip(np.nan_to_num(z, nan=0.0, posinf=lim, neginf=-lim), -lim, lim)

    def px(v):
        return left + (v + lim) / (2 * lim) * (panel_w - 1)

    for t in _ticks(-lim, lim):
        label = f"{t:g}"
        _line(img, px(t), top + panel_h, px(t), top + panel_h + 3, _DARK)
        _text(img, px(t) - _text_width(label) / 2, top + panel_h + 6, label,
              _INK)
    _line(img, px(0), top, px(0), top + panel_h - 1, _GREY)
    for i, (row, zi) in enumerate(zip(rows, z)):
        y = top + i * row_h
        if not row.gating:
            color = _GREY
        elif abs(row.z) > report.z_max:
            color = _RED
        else:
            color = _BLUE
        _fill(img, px(0), y + 2, px(zi) + 1, y + row_h - 2, color)
        _text(img, left - 8 - _text_width(labels[i]), y + 4, labels[i], _INK)
    for edge in (-report.z_max, report.z_max):
        _line(img, px(edge), top, px(edge), top + panel_h - 1, _RED, dash=4)
    _frame(img, left, top, left + panel_w - 1, top + panel_h - 1)
    _text(img, left + panel_w / 2 - _text_width("z score") / 2,
          top + panel_h + 20, "z score", _INK)
    _text(img, 8, 8, f"{report.test_id} (seed {report.seed})", _INK, scale=2)
    return img


def _draw_sweep(sweep: SweepResult):
    width, height = 640, 440
    left, right, top, bottom = 64, 20, 36, 64
    img = np.full((height, width, 3), 255, np.uint8)
    x0, x1, y0, y1 = left, width - right - 1, top, height - bottom - 1

    lx = np.log10(np.asarray(sweep.scales, dtype=float))
    xlo, xhi = float(lx.min()), float(lx.max())
    xpad = 0.05 * (xhi - xlo) if xhi > xlo else 0.5  # one scale: a decade
    xlo, xhi = xlo - xpad, xhi + xpad
    band = (sweep.target / 2, sweep.target * 2)
    ys = [*sweep.ratios, *band]
    ylo, yhi = min(ys), max(ys)
    ypad = 0.08 * (yhi - ylo)
    ylo, yhi = ylo - ypad, yhi + ypad

    def px(v):
        return x0 + (v - xlo) / (xhi - xlo) * (x1 - x0)

    def py(v):
        return y1 - (v - ylo) / (yhi - ylo) * (y1 - y0)

    _fill(img, x0, py(max(band)), x1 + 1, py(min(band)) + 1, _BAND)
    _line(img, x0, py(sweep.target), x1, py(sweep.target), _DARK)
    for t in _ticks(ylo, yhi):
        label = f"{t:g}"
        _line(img, x0 - 3, py(t), x0, py(t), _DARK)
        _text(img, x0 - 6 - _text_width(label), py(t) - 3, label, _INK)
    last_right = -math.inf
    for v, s in sorted(zip(lx, sweep.scales)):  # left to right
        label = f"{s:.3g}"
        _line(img, px(v), y1, px(v), y1 + 3, _DARK)
        lx0 = px(v) - _text_width(label) / 2
        if lx0 > last_right + 4:  # skip a label that would overlap
            _text(img, lx0, y1 + 6, label, _INK)
            last_right = lx0 + _text_width(label)
    pts = [(px(v), py(r)) for v, r in zip(lx, sweep.ratios)]
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        _line(img, ax, ay, bx, by, _BLUE, width=2)
    dy, dx = np.mgrid[-3:4, -3:4]
    disc = dx ** 2 + dy ** 2 <= 10
    for ax, ay in pts:
        _plot(img, dx[disc] + round(ax), dy[disc] + round(ay), _BLUE)
    _frame(img, x0, y0, x1, y1)

    _text(img, (x0 + x1) / 2 - _text_width("scale") / 2, y1 + 20, "scale",
          _INK)
    _text(img, 8, top - 10, "ratio", _INK)
    _text(img, 8, 8, f"{sweep.sweep_id} (seed {sweep.seed}, "
          f"{sweep.replicates} replicates)", _INK, scale=2)
    x, y = x0, height - 18  # legend, below the axes so it covers no data
    for kind, color, label in (("line", _BLUE, "median ratio"),
                               ("line", _DARK, "target"),
                               ("box", _BAND,
                                "factor-2 band (informational)")):
        if kind == "line":
            _line(img, x, y + 3, x + 16, y + 3, color, width=2)
        else:
            _fill(img, x, y - 1, x + 17, y + 8, color)
        _text(img, x + 22, y, label, _INK)
        x += 22 + _text_width(label) + 18
    return img


def render_report_figure(report: ComparisonReport, output_path) -> str | None:
    """z-score chart next to the JSON report; best effort.

    One horizontal bar per row: red for a gating row beyond ``z_max``, grey
    for an informational row, blue otherwise, with dashed lines at
    +-``z_max``; an infinite z is clipped to the panel edge.  The PNG comes
    from the built-in writer, with no plotting library.  Any failure is
    logged as a warning and returns None; verdicts are never affected.
    """
    try:
        return _write_png(_figure_path(output_path, "z"), _draw_report(report))
    except Exception as exc:  # non-gating by design
        log.warning("figure rendering failed: %s", exc)
        return None


def render_sweep_figure(sweep: SweepResult, output_path) -> str | None:
    """ratio-vs-scale curve with the factor-2 band; best effort.

    Median ratio against scale on a log-x axis, with a line at the target
    and the shaded informational factor-2 band.  The PNG comes from the
    built-in writer, with no plotting library.  Any failure is logged as a
    warning and returns None; the sweep's exit code is never affected.
    """
    try:
        return _write_png(_figure_path(output_path, "ratio"),
                          _draw_sweep(sweep))
    except Exception as exc:  # non-gating by design
        log.warning("figure rendering failed: %s", exc)
        return None
