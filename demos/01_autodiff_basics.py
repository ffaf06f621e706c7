#!/usr/bin/env python3
# Walk through the reverse-mode tensor core: build a small expression,
# backprop it, and compare against finite differences.

import numpy as np

from sst.tensor import DomainError, Tensor, grad_check, linear, residual_norm

# tensors wrap float64 arrays; requires_grad marks trainable leaves
w = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
b = Tensor(np.array([0.1, -0.2]), requires_grad=True)
x = Tensor(np.array([[1.0, 3.0]]))

y = linear(x, w, b, "sigmoid")  # forward pass records the tape: one node
print("forward:", y.data)

loss = (y * y).sum()
loss.backward()  # reverse sweep fills .grad on every leaf
print("dloss/dw:\n", w.grad)

# calling backward again accumulates, it does not overwrite
loss2 = linear(Tensor(x.data), w, b, "sigmoid").sum()
loss2.backward()
print("after a second backward the grads added up:\n", w.grad)

w.grad = b.grad = None  # reset between optimizer steps

# every operator is validated against central differences; grad_check
# returns the worst relative error over all entries
err = grad_check(lambda t: (linear(t, w, b, "sigmoid") * Tensor(np.array([[0.3, -0.7]]))).sum(),
                 Tensor(np.array([[0.2, -1.4]])))
print(f"grad_check relative error: {err:.2e}")

# domain violations raise immediately instead of propagating Inf or NaN
try:
    residual_norm(x, None, None, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
except DomainError as e:
    print("caught:", e)
