"""The always-on prediction service.

A long-running :mod:`asyncio` server that keeps the expensive state of
the reproduction — the parsed+compiled PSL model, machine presets with
their simulation-plan/trace caches, and the disk-backed sweep cache —
warm across network callers, so none of it is rebuilt per request.

Layers (stdlib only — the repo's runtime deps are numpy-only, so there
is no web framework):

* :mod:`repro.service.protocol` — typed request/response messages with a
  versioned JSON wire form;
* :mod:`repro.service.http` — a minimal HTTP/1.1 layer over
  ``asyncio.start_server``;
* :mod:`repro.service.batching` — the request coalescer: concurrent
  predict/simulate requests inside a small window are deduplicated by
  scenario fingerprint and micro-batched into one sweep-runner call;
* :mod:`repro.service.core` —
  :class:`~repro.service.core.PredictionService`: shared warm state, the
  in-memory result LRU (tier order: memory-LRU → disk cache → compute)
  and the HTTP routing; :func:`~repro.service.core.run_server` and
  :class:`~repro.service.core.BackgroundServer` run it;
* :mod:`repro.service.jobs` — study submissions as background jobs with
  status polling, cancellation and artifact retrieval;
* :mod:`repro.service.client` — a stdlib synchronous client.

Every response is bit-identical to the corresponding direct
``api.predict`` / ``api.simulate`` / ``StudyRunner.run`` call: the
service only shares compile/plan steps and caches results keyed on the
full scenario identity, never approximates.
"""
