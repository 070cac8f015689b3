"""The Adam optimizer. Updates are in place so parameter identity is stable.

The trainers pass each model as one flat parameter vector with one flat
gradient, so a step is one pass of 14 elementwise operations over the whole
model. Every operation writes into the moments, two scratch arrays or the
parameters themselves, so a step allocates no temporaries; the operations and
their order are those of the textbook per-tensor formula, so the result is
bitwise the same.
"""

import numpy as np


class Adam:
    """Adaptive moment estimation with bias correction.

    Keeps first/second moment buffers and two scratch arrays per parameter
    position, allocated on the first step, so the same parameter list (in
    the same order) must be passed on every step. A step with all-zero
    gradients leaves parameters bit-identical.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, learning_rate=1e-3):
        self.learning_rate = learning_rate
        self.step_count = 0
        self._state = None

    def step(self, params, grads):
        """Update params in place from grads, one gradient per parameter in order."""
        if len(params) != len(grads):
            raise ValueError(f"{len(params)} parameters but {len(grads)} gradients")
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        if self._state is None:
            # per position: m, v and two scratch arrays
            self._state = [tuple(np.zeros_like(p) for _ in range(4)) for p in params]
        if len(self._state) != len(params):
            raise ValueError("parameter list changed size between steps")
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.BETA1, self.BETA2
        for p, g, (m, v, a, s) in zip(params, grads, self._state):
            # m = b1 * m + (1 - b1) * g
            m *= b1
            np.multiply(1.0 - b1, g, out=a)
            m += a
            # v = b2 * v + (1 - b2) * g * g
            v *= b2
            np.multiply(1.0 - b2, g, out=a)
            a *= g
            v += a
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, 1.0 - b1**t, out=a)
            np.divide(v, 1.0 - b2**t, out=s)
            np.sqrt(s, out=s)
            s += self.EPS
            np.multiply(self.learning_rate, a, out=a)
            a /= s
            p -= a
