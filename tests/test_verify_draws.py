"""The sampled suites' draw order, pinned through failing kernels.

Sampled kk and colouring pass on the real kernels, so a reordered draw
would not show in their reports.  Here every checked case fails, and the
failure lists must equal the ones this file's own draw loops give.
"""

import random

from latticework import colouring, shadow
from latticework.constructions import full_layer_pair
from latticework.core import SetFamily, layer_masks
from latticework.sampling import random_layer_pair
from latticework.verify import MAX_REPORTED_FAILURES, verify_colouring, verify_kk


def test_sampled_kk_draws_each_size_then_its_sample(monkeypatch):
    bound = shadow.kk_shadow_bound
    monkeypatch.setattr(shadow, "kk_shadow_bound", lambda m, k, r: bound(m, k, r) + 1)
    n, k, samples, seed = 6, 3, 20, 7
    layer = layer_masks(n, k)
    assert len(layer) == 20  # wider than the exhaustive cap, so sampled
    rng = random.Random(seed)
    want = []
    for _ in range(samples):
        m = rng.randrange(1, len(layer) + 1)
        cur = SetFamily.from_masks(n, sorted(rng.sample(layer, m)))
        for r in range(1, k + 1):
            cur = shadow.lower_shadow(cur)
            raised = bound(m, k, r) + 1
            if len(cur) < raised:
                want.append({"family_size": m, "r": r, "shadow": len(cur), "bound": raised})
    rep = verify_kk(n=n, k=k, samples=samples, seed=seed)
    assert (rep["exhaustive"], rep["checked"]) == (False, samples)
    # at r = k the shadow is {∅}, one set short of the raised bound, so each case fails
    assert len(want) >= samples > MAX_REPORTED_FAILURES
    assert len({f["family_size"] for f in want[:MAX_REPORTED_FAILURES]}) > 1
    assert rep["failures"] == want[:MAX_REPORTED_FAILURES]


def test_sampled_colouring_draws_each_density_then_its_pair(monkeypatch):
    monkeypatch.setattr(colouring, "is_proper", lambda eg: False)
    n, samples, seed = 3, 12, 2
    rng = random.Random(seed)
    labels = []
    for kk in range(n):
        assert all(len(side) for side in full_layer_pair(n, kk))
        labels.append(f"full layers ({kk},{kk + 1}) of [{n}]")
        for i in range(samples):
            density = rng.uniform(0.2, 0.95)
            a, b = random_layer_pair(rng, n, kk, density=density)
            if len(a) and len(b):  # a pair with an empty side is skipped and not counted
                labels.append(f"sample {i} at k={kk}")
    rep = verify_colouring(n=n, samples=samples, seed=seed)
    assert rep["checked"] == len(labels) < n * (samples + 1)
    first = labels[:MAX_REPORTED_FAILURES]
    assert rep["failures"] == [{"case": label, "reason": "colouring not proper"} for label in first]
    # the kept failures skip at least one sample index, so the skip shows in them too
    kept = [label for label in first if label.startswith("sample")]
    assert kept != [f"sample {i} at k=0" for i in range(len(kept))]
