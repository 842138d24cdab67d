"""Adam parameter updates."""
from __future__ import annotations

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
        # float64 scratch for one slice's update; not state
        self._num, self._den = np.empty(_CHUNK), np.empty(_CHUNK)

    def step(self, named_params):
        """One update, slice by slice: the same elementwise ops in the same
        dtypes as a whole-array update, so the same result bit for bit."""
        named_params = list(named_params)
        _check_grads(named_params)
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in named_params:
            if name not in self.m:
                self.m[name] = np.zeros(p.data.shape)
                self.v[name] = np.zeros(p.data.shape)
            updated = (p.data, self.m[name], self.v[name])   # in place, by flat views
            if not all(a.flags.c_contiguous for a in updated):
                raise ValueError(f"parameter {name} or its moments are not C-contiguous")
            data, m, v, g = (a.reshape(-1) for a in (*updated, p.grad))
            for start in range(0, data.size, _CHUNK):
                s = slice(start, start + _CHUNK)
                ms, vs, gs = m[s], v[s], g[s]
                num, den = self._num[:len(gs)], self._den[:len(gs)]
                ms *= self.beta1
                ms += (1.0 - self.beta1) * gs
                vs *= self.beta2
                vs += (1.0 - self.beta2) * (gs * gs)
                # lr * (m / b1t) / (sqrt(v / b2t) + eps), one op at a time in place
                np.divide(ms, b1t, out=num)
                np.multiply(self.lr, num, out=num)
                np.divide(vs, b2t, out=den)
                np.sqrt(den, out=den)
                np.add(den, self.eps, out=den)
                np.divide(num, den, out=num)
                data[s] -= num.astype(data.dtype, copy=False)

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
        of moments, in the parameter's shape.
        """
        _check_members(arrays, [("adam.t", (1,))])
        if int(arrays["adam.t"][0]) != 0:
            _check_members(arrays, [(f"adam.{moment}.{name}", p.data.shape)
                                    for name, p in named_params for moment in "mv"])

    def load_state_arrays(self, arrays):
        self.t = int(arrays["adam.t"][0])
        self.m = {k[len("adam.m."):]: v for k, v in arrays.items() if k.startswith("adam.m.")}
        self.v = {k[len("adam.v."):]: v for k, v in arrays.items() if k.startswith("adam.v.")}
