"""Adam parameter updates, in each parameter's own dtype.

The moments and the update take the parameter's dtype: float32 for every
model, float64 only for the gradient checks' float64 tensors.  Float32 is the
full precision of mixed-precision training's master weights and optimizer
state (Micikevicius et al. 2018), and Adam is elementwise on the parameters.
The update is Kingma & Ba's in PyTorch's arrangement,
``p -= (lr / (1 - b1**t)) * m / (sqrt(v) / sqrt(1 - b2**t) + eps)``.
"""
from __future__ import annotations

import math

import numpy as np

from .checkpoint import _check_members
from .tensor import NumericError

_CHUNK = 1 << 14   # elements per Adam update slice: every operand of a slice stays in cache


def _check_grads(named_params):
    for name, p in named_params:
        if p.grad is None:
            raise NumericError(f"parameter {name} has no gradient")
        if not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient in {name}; step rejected")


def zero_grads(named_params):
    for _, p in named_params:
        p.grad = None


class Adam:
    """Adam with bias correction, moments keyed by parameter name."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {}
        self.v = {}
        self._scratch = {}   # dtype -> two rows of one slice's update; not state

    def step(self, named_params):
        """One update, slice by slice, in each parameter's dtype.

        With the Python-float scalars ``step_size = lr / (1 - b1**t)`` and
        ``c2 = sqrt(1 - b2**t)``, each parameter and its moments take

            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            p -= step_size * m / (sqrt(v) / c2 + eps)

        the textbook update in PyTorch's arrangement.  Each slice applies the
        same elementwise ops in the same order as the whole-array expressions,
        so the result is the same bit for bit.
        """
        named_params = list(named_params)
        _check_grads(named_params)
        self.t += 1
        step_size = self.lr / (1.0 - self.beta1 ** self.t)
        c2 = math.sqrt(1.0 - self.beta2 ** self.t)
        for name, p in named_params:
            if name not in self.m:
                self.m[name] = np.zeros(p.data.shape, p.data.dtype)
                self.v[name] = np.zeros(p.data.shape, p.data.dtype)
            updated = (p.data, self.m[name], self.v[name])   # in place, by flat views
            if not all(a.flags.c_contiguous for a in updated):
                raise ValueError(f"parameter {name} or its moments are not C-contiguous")
            if p.data.dtype not in self._scratch:
                self._scratch[p.data.dtype] = np.empty((2, _CHUNK), p.data.dtype)
            scratch = self._scratch[p.data.dtype]
            data, m, v, g = (a.reshape(-1) for a in (*updated, p.grad))
            for start in range(0, data.size, _CHUNK):
                s = slice(start, start + _CHUNK)
                ms, vs, gs = m[s], v[s], g[s]
                den, num = scratch[:, :len(gs)]
                ms *= self.beta1
                np.multiply(1.0 - self.beta1, gs, out=num)
                ms += num
                vs *= self.beta2
                np.multiply(gs, gs, out=num)
                num *= 1.0 - self.beta2
                vs += num
                np.sqrt(vs, out=den)
                den /= c2
                den += self.eps
                np.multiply(step_size, ms, out=num)
                num /= den
                data[s] -= num

    def state_arrays(self):
        """Moment buffers plus the step counter, for checkpointing."""
        out = {"adam.t": np.array([self.t], dtype=np.int64)}
        for name, arr in sorted(self.m.items()):
            out[f"adam.m.{name}"] = arr
        for name, arr in sorted(self.v.items()):
            out[f"adam.v.{name}"] = arr
        return out

    def check_state_arrays(self, arrays, named_params):
        """Raise ValueError unless ``arrays`` holds a loadable state for these parameters.

        ``adam.t`` is always needed; after a step, so is each parameter's pair
        of moments, in the parameter's shape and dtype.
        """
        _check_members(arrays, [("adam.t", (1,))])
        if int(arrays["adam.t"][0]) != 0:
            moments = [(f"adam.{moment}.{name}", p.data) for name, p in named_params
                       for moment in "mv"]
            _check_members(arrays, [(key, data.shape) for key, data in moments])
            for key, data in moments:
                if arrays[key].dtype != data.dtype:
                    raise ValueError(
                        f"dtype mismatch for {key}: {arrays[key].dtype} vs {data.dtype}")

    def load_state_arrays(self, arrays):
        self.t = int(arrays["adam.t"][0])
        self.m = {k[len("adam.m."):]: v for k, v in arrays.items() if k.startswith("adam.m.")}
        self.v = {k[len("adam.v."):]: v for k, v in arrays.items() if k.startswith("adam.v.")}
