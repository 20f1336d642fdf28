"""Sampling the invariant law: time averages and the empirical distribution.

One long trajectory of the dissipative splitting visits phase space with
the Gibbs frequency exp(-(2 upsilon/sigma^2) H0), so time averages of
observables converge to closed-form moments of that law, from any initial
condition.  Desk-scale version of the long-time runs:
shorter horizon, fewer seeds, but the same estimators as the acceptance
suite.
"""

import numpy as np

from langsplit.analysis import distance_noise_floor, distribution_distance
from langsplit.experiments import ergodic_averages, histogram_snapshots
from langsplit.model import PhysParams, State, gibbs_moments
from langsplit.montecarlo import SeedPolicy
from langsplit.splitting import SchemeSpec

prm = PhysParams(upsilon=15.0, sigma=1.0)
savf = SchemeSpec.from_name("savf")
tau = 2.0**-8

mom = gibbs_moments(prm)
print(f"stationary moments: E[p^2] = E[q^4] = {mom.Ep2:.6f}, "
      f"E[q^2] = {mom.Eq2:.6f}\n")

obs = {"p2": lambda p, q: p * p, "q4": lambda p, q: q**4}
for init in (State(0.0, 0.0), State(2.0, 2.0)):
    avgs = ergodic_averages(savf, prm, tau, T=96.0, burn_in=16.0, n_seeds=24,
                            seeds=SeedPolicy(5), initial=init,
                            observables=obs)
    print(f"from initial ({init.p:g}, {init.q:g}): "
          f"time-avg p^2 = {avgs['p2'].mean():.5f} "
          f"(se {avgs['p2'].std(ddof=1) / np.sqrt(24):.5f}), "
          f"q^4 = {avgs['q4'].mean():.5f} "
          f"(se {avgs['q4'].std(ddof=1) / np.sqrt(24):.5f})")
print("(q^4 decorrelates over ~40 time units at upsilon = 15, so this short"
      "\n horizon leaves it noisy; the acceptance run uses T = 512)")

print("\nempirical distribution vs the Gibbs density (L1 over a 40x40 grid)")
hists = histogram_snapshots(savf, prm, tau, snapshot_times=[0.0, 2.0, 32.0],
                            n_paths=4000, seeds=SeedPolicy(9),
                            initial=State(0.0, 0.0), bins=(40, 40),
                            p_range=(-1.0, 1.0), q_range=(-1.5, 1.5))
for t, h in zip((0.0, 2.0, 32.0), hists):
    print(f"  t = {t:5.1f}:  distance = {distribution_distance(h, prm):.4f}")
floor = distance_noise_floor(prm, hists[-1].p_edges, hists[-1].q_edges, 4000)
print(f"  exact draws:  distance = {floor.mean:.4f} +- {floor.sd:.4f} "
      "(the floor that 4000 samples can reach)")
print("(the t = 0 snapshot is a point mass, so its distance is near the "
      "maximum of 2)")
