"""Screenshot capture."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dom.page import PageContent, VisualSpec
from repro.imaging.image import render_visual

#: Visual shown for pages that failed to load (dead domains, 404s).  These
#: look alike across domains, which is how the paper's one "spurious"
#: cluster (improper page loads) arises.
DEAD_PAGE_SPEC = VisualSpec(template_key="dead-page", variant=0, noise_level=0.0)


@dataclass(frozen=True)
class Screenshot:
    """A captured screenshot with its provenance.

    ``image`` is ``render_visual(spec)``, a pure function of ``spec``, so
    anything derived from the pixels alone (a perceptual hash) can be
    keyed by ``spec`` instead of by the array's content.
    """

    url: str
    image: np.ndarray
    spec: VisualSpec
    timestamp: float
    tab_id: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Screenshot(url={self.url!r}, t={self.timestamp:.0f})"


def capture(page: PageContent | None, url: str, timestamp: float, tab_id: int) -> Screenshot:
    """Render the screenshot of ``page`` (or the dead-page visual)."""
    spec = page.visual if page is not None else DEAD_PAGE_SPEC
    return Screenshot(
        url=url, image=render_visual(spec), spec=spec, timestamp=timestamp, tab_id=tab_id
    )
