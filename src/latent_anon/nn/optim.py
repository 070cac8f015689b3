"""The Adam optimizer. Updates are in place so parameter identity is stable."""

import numpy as np


class Adam:
    """Adaptive moment estimation with bias correction.

    Keeps first/second moment buffers per parameter position, so the same
    parameter list (in the same order) must be passed on every step. A step
    with all-zero gradients leaves parameters bit-identical.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = None
        self._v = None

    def step(self, params, grads):
        """Update params in place from grads, one gradient per parameter in order."""
        if len(params) != len(grads):
            raise ValueError(f"{len(params)} parameters but {len(grads)} gradients")
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        if len(self._m) != len(params):
            raise ValueError("parameter list changed size between steps")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.BETA1, self.BETA2
        for k, (p, g) in enumerate(zip(params, grads)):
            m = self._m[k]
            v = self._v[k]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)
