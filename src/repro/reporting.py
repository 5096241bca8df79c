"""Plain-text rendering of the paper's overhead and success-rate figures.

Terminal-friendly reporting used by the CLI: the stacked horizontal bars
of a Figure 4-style overhead breakdown and a coarse Figure 5-style chart.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

BAR_SEGMENTS = (
    ("composition_ms", "#"),
    ("distribution_ms", "="),
    ("download_ms", "D"),
    ("init_or_handoff_ms", "+"),
)


def render_overhead_bars(
    rows: Sequence[Mapping[str, float]],
    labels: Sequence[str],
    width: int = 60,
) -> str:
    """Figure 4 as stacked horizontal ASCII bars.

    Bars are scaled to the largest total; segment characters:
    ``#`` composition, ``=`` distribution, ``D`` downloading,
    ``+`` initialization/state handoff.
    """
    if len(rows) != len(labels):
        raise ValueError("rows and labels must have the same length")
    if not rows:
        return "(no rows)"
    max_total = max(row["total_ms"] for row in rows) or 1.0
    lines: List[str] = []
    for label, row in zip(labels, rows):
        bar = ""
        for key, char in BAR_SEGMENTS:
            segment = int(round(row.get(key, 0.0) / max_total * width))
            bar += char * segment
        lines.append(f"{label:<10} |{bar:<{width}}| {row['total_ms']:8.1f} ms")
    legend = "legend: # composition  = distribution  D download  + init/handoff"
    lines.append(legend)
    return "\n".join(lines)


def render_success_series(
    sample_times: Sequence[float],
    series: Mapping[str, Sequence[float]],
    height: int = 10,
) -> str:
    """Figure 5 as a coarse ASCII chart (one letter per algorithm).

    Each algorithm plots its first letter at the bucketed success-rate row;
    collisions show the letter of the later-plotted series.
    """
    if not sample_times:
        return "(no samples)"
    rows = [[" "] * len(sample_times) for _ in range(height + 1)]
    for name, values in series.items():
        letter = name[0].upper()
        for column, value in enumerate(values):
            bucket = min(height, max(0, int(round(value * height))))
            rows[height - bucket][column] = letter
    lines: List[str] = []
    for i, row in enumerate(rows):
        level = (height - i) / height
        lines.append(f"{level:>5.2f} |" + " ".join(row))
    lines.append("      +" + "--" * len(sample_times))
    labels = "  ".join(f"{name}={name[0].upper()}" for name in series)
    lines.append(f"       {labels}")
    return "\n".join(lines)
