"""SVG figures for chains, towers, hyperspaces, and the circular model.

Everything is plain string assembly; figures are meant for inspection, not
publication.  Each link of a chain becomes one ``<path>`` element whose
subpaths outline the link's rectangles; when several levels are drawn
together the coarser chains are stroked lighter so the nesting reads at a
glance.
"""

from __future__ import annotations

from typing import List, Sequence

from .chains import Chain, Rect
from .continua import GraphContinuum, enumerate_subcontinua
from .errors import DomainError
from .realize import ChainTower

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22"]
# Pixel size of the longer side of a chain figure, and of the square plots.
_CHAIN_SIZE = 800.0
_PLOT_SIZE = 600.0


def _rect_subpath(r: Rect, scale: float, pad: float) -> str:
    x0, y0 = r.c0 * scale + pad, r.r0 * scale + pad
    x1, y1 = r.c1 * scale + pad, r.r1 * scale + pad
    return (f"M {x0:.2f} {y0:.2f} L {x1:.2f} {y0:.2f} "
            f"L {x1:.2f} {y1:.2f} L {x0:.2f} {y1:.2f} Z")


def _link_path(rects: Sequence[Rect], scale: float, pad: float,
               stroke: str, width: float, opacity: float) -> str:
    d = " ".join(_rect_subpath(r, scale, pad) for r in rects)
    return (f'<path d="{d}" fill="{stroke}" fill-opacity="{opacity / 4:.3f}" '
            f'stroke="{stroke}" stroke-opacity="{opacity:.3f}" '
            f'stroke-width="{width:.2f}" />')


def _document(body: List[str], width: float, height: float) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width:.0f}" height="{height:.0f}" '
            f'viewBox="0 0 {width:.2f} {height:.2f}">')
    return "\n".join([head, '<rect width="100%" height="100%" fill="white"/>']
                     + body + ["</svg>"])


def chains_svg(levels: Sequence[Chain]) -> str:
    """Several chains on one grid; earlier (coarser) chains drawn lighter."""
    return _chains_figure(levels, [])


def tower_svg(tower: ChainTower) -> str:
    """All levels of a tower, plus markers on the two endpoint cells."""
    return _chains_figure(tower.levels, [tower.x_cell, tower.y_cell])


def _chains_figure(levels: Sequence[Chain], marked: Sequence[tuple]) -> str:
    if not levels:
        raise DomainError("nothing to draw")
    c_max = max(r.c1 for c in levels for l in c.links for r in l.rects)
    r_max = max(r.r1 for c in levels for l in c.links for r in l.rects)
    pad = 10.0
    scale = max((_CHAIN_SIZE - 2 * pad) / max(c_max, r_max), 1e-9)
    body = []
    depth = len(levels)
    for li, chain in enumerate(levels):
        opacity = 0.25 + 0.75 * (li + 1) / depth
        width = 2.5 * (depth - li) / depth
        for link in chain.links:
            color = _PALETTE[(link.index - 1) % len(_PALETTE)]
            body.append(_link_path(link.rects, scale, pad, color,
                                   width, opacity))
    for cell in marked:
        cx = (cell[0] + 0.5) * scale + pad
        cy = (cell[1] + 0.5) * scale + pad
        body.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" '
                    f'fill="#000000" />')
    return _document(body, c_max * scale + 2 * pad, r_max * scale + 2 * pad)


def hyperspace_svg(continuum: GraphContinuum) -> str:
    """Scatter of all subcontinua: x = centroid position, y = ``len(A) / n``,
    the normalized diameter-like count."""
    subs = enumerate_subcontinua(continuum)
    n = continuum.n
    pad = 30.0
    w = _PLOT_SIZE
    h = _PLOT_SIZE * 0.75
    body = []
    for sub in subs:
        idx = sorted(sub)
        x = (sum(idx) / len(idx)) / max(n - 1, 1)
        y = len(sub) / n
        cx = pad + x * (w - 2 * pad)
        cy = h - pad - y * (h - 2 * pad)
        color = _PALETTE[(len(sub) - 1) % len(_PALETTE)]
        body.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" '
                    f'fill="{color}" fill-opacity="0.7" />')
    body.append(f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" '
                f'y2="{h - pad}" stroke="#333" />')
    body.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" '
                f'stroke="#333" />')
    return _document(body, w, h)


def psi_svg(model) -> str:
    """The circular fiber model: embedded fiber points plus the base ring."""
    pad = 30.0
    half = _PLOT_SIZE / 2.0
    rad = half - pad

    def to_px(pt):
        return (half + pt[0] * rad / 1.6, half - pt[1] * rad / 1.6)

    body = [f'<circle cx="{half}" cy="{half}" r="{rad / 1.6:.2f}" '
            f'fill="none" stroke="#cccccc" stroke-dasharray="4 4" />']
    for alpha in range(model.m):
        color = _PALETTE[alpha % len(_PALETTE)]
        pts = [to_px(model.points.points[model.vertex_id(alpha, t)])
               for t in range(1, model.k + 1)]
        d = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in pts)
        body.append(f'<path d="{d}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5" />')
        for x, y in pts:
            body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                        f'fill="{color}" />')
    return _document(body, _PLOT_SIZE, _PLOT_SIZE)


def write_svg(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
