"""A float32 model trains in float32 end to end: nothing promotes to float64."""

import numpy as np

from repro.models import CNNLSTMClassifier
from repro.nn import Adam, Tensor, clip_grad_norm, cross_entropy


def _tape(root):
    """Every tensor reachable from ``root`` through the recorded tape."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def test_float32_training_step_stays_float32(micro_model_config, rng):
    model = CNNLSTMClassifier(micro_model_config, np.random.default_rng(0))
    assert model.dtype == np.float32
    optimizer = Adam(model.parameters(), lr=1e-3, weight_decay=1e-4)
    x = rng.random((4, 8, 16, 16)).astype(np.float32)
    y = np.array([0, 1, 2, 3])

    model.train()
    loss = cross_entropy(model(Tensor(x)), y)
    nodes = _tape(loss)
    activations = [node for node in nodes if node._parents]
    assert len(activations) > 50  # the whole forward pass is on the tape
    promoted = {str(node.dtype) for node in nodes if node.dtype != np.float32}
    assert not promoted, f"tape holds {promoted} tensors"

    optimizer.zero_grad()
    loss.backward()
    clip_grad_norm(model.parameters(), 5.0)
    optimizer.step()
    for name, param in model.named_parameters():
        assert param.grad is not None, name
        assert param.grad.dtype == np.float32, name
        assert param.data.dtype == np.float32, name
    for moment in optimizer._m + optimizer._v:
        assert moment.dtype == np.float32
    assert optimizer.state_dict()["m.0"].dtype == np.float32
