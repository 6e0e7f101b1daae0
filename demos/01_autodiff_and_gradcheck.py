#!/usr/bin/env python3
"""Tour of the tensor engine: run one fused op, backprop, verify against FD.

Every op of a training step is one autodiff node with a hand-written
vector-Jacobian product. This script runs one of them, the textless
terminals `nn.normalize_clips` (each clip's projection, L2-normalized),
differentiates a probe of its output, checks that gradient by hand and by
central differences, then runs the named verification suite the
`mmgi gradcheck` command uses.
"""

import numpy as np

from mmgi import autodiff as ad
from mmgi.autodiff import Tensor, backward
from mmgi.gradcheck import grad_check
from mmgi.nn import normalize_clips
from mmgi.verify import verification_suite

rng = np.random.default_rng(0)
clips = rng.normal(size=(3, 4))                       # three clips' features
params = {"w": Tensor(rng.normal(size=(4, 2)), requires_grad=True)}
probe = rng.normal(size=(3, 2))


def probed() -> Tensor:
    """sum(probe * terminals): the op's output dotted with a fixed probe, as
    one more node built the way every fused op is, from its data, parents
    and vjp."""
    unit = normalize_clips(clips, params["w"])
    return ad._from_op(np.asarray((unit.data * probe).sum()), (unit,),
                       lambda g: (g * probe,))


unit = normalize_clips(clips, params["w"])
print("terminals:\n", unit.data)
print("row norms:", np.linalg.norm(unit.data, axis=1))

backward(probed())
# unit = p / |p| with p = clips @ w, so dL/dp = (probe - unit * <probe, unit>) / |p|
proj = clips @ params["w"].data
norms = np.linalg.norm(proj, axis=1, keepdims=True)
g_proj = (probe - unit.data * (probe * unit.data).sum(axis=1, keepdims=True)) / norms
print("\nanalytic dw:\n", params["w"].grad)
print("expected dw:\n", clips.T @ g_proj)

# the FD harness returns the worst relative disagreement over probed coords
err = grad_check(probed, params, probes_per_tensor=8)
print(f"\nfinite-difference check of the fused op: {err:.2e}")

print("\nfull verification suite (same as `mmgi gradcheck`):")
for name, value in verification_suite(seed=0).items():
    print(f"  {name:<24s} {value:.3e}")
