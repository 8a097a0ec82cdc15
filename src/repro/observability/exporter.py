"""Prometheus text exposition format renderer.

Output matches the format scraped by a real Prometheus server::

    # HELP qpu_fidelity_proxy Device health score
    # TYPE qpu_fidelity_proxy gauge
    qpu_fidelity_proxy{device="fresnel"} 0.98

so the daemon's ``/metrics`` endpoint returns drop-in compatible text
(paper §3.6: "Using such standard tools makes it easy to integrate the
QPU metrics into existing observability stacks at the data center").
"""

from __future__ import annotations

import math

from .metrics import MetricRegistry

__all__ = ["render_exposition"]


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # coerce first: numpy scalars repr as "np.float64(...)" otherwise
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_exposition(registry: MetricRegistry) -> str:
    """Render the whole registry in exposition format, after its read
    hooks ran: derived gauges — queue depth, alert states, SLO burn
    rates — are set by the hooks of whatever keeps their state."""
    lines: list[str] = []
    for instrument in registry.instruments():
        if instrument.help_text:
            lines.append(f"# HELP {instrument.name} {instrument.help_text}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        for suffix, labels, value in instrument.samples():
            lines.append(
                f"{instrument.name}{suffix}{_format_labels(labels)} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n"
