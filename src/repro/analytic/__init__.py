"""Baseline analytic wavefront models.

The paper's related-work section (and its Section 6 claim that the PACE
predictions "concur with other related analytical models") refers to two
hand-crafted analytical models of SWEEP3D:

* the **LogGP** model of Sundaram-Stukel & Vernon (PPoPP'99), expressed in
  the LogGP machine parameters (:mod:`repro.analytic.loggp`), and
* the **Los Alamos** model of Hoisie, Lubeck & Wasserman, expressed as
  total computation + communication time with a pipeline fill term
  (:mod:`repro.analytic.hoisie`).

Both are re-implemented here (as renditions of the published formulations,
parameterised from the same simulated machines) so that the model-agreement
experiment can compare all three predictors on the speculative
configurations.
"""
