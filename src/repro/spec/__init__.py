"""Declarative submission specs: one payload for every surface.

* :class:`JobSpec` — the frozen job description the daemon client, the
  federation broker, the cloud gateway, and cluster job-script
  generation all accept (see :mod:`repro.session` for the facade that
  routes a spec to the right backend),
* :func:`require_spec` — the up-front type check every intake runs,
* :data:`DEFAULT_SHOTS` — the federation-wide shot fallback.
"""

from .jobspec import DEFAULT_SHOTS, JobSpec, parse_site_leg, require_spec

__all__ = ["DEFAULT_SHOTS", "JobSpec", "parse_site_leg", "require_spec"]
