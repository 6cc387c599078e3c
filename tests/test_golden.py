"""Golden outputs: the exact behaviour of each runnable preset at seed 1.

The statistical bands of the acceptance tests pass for many different
auction outcomes, so a refactor that changes which servers win could drift
silently. These pins catch it. Each preset is run at seed 1 and four values
are compared with the ones recorded here:

- `event_digest`, which covers the order and timing of arrivals and
  completions;
- the sha256 of `bins.csv` and of `coalitions.csv`;
- a commit digest over (request id, member ids, allocations) of every
  committed coalition, taken by wrapping `Fleet.commit`. The event digest
  alone cannot tell which servers won: two runs that commit different
  coalitions with the same arrival times and durations share it.

The desk presets are cut from 10^5 to 10^4 requests to keep the run fast.
exp5 and exp6 run at their published 10^3 requests.

No preset reaches the secondary-contact fallback: with 100 primary contacts
per core a leader never exhausts its primary list. One more pin covers it:
exp2-desk with 10 primary contacts per core, cut to 5,000 requests, where
leaders fall back several hundred times. That pin also counts the
`ContactOrder.secondary` calls, so it fails if the run stops falling back.

A change that moves any of these values changes simulated behaviour; it
must say which value moved and why the new behaviour is intended.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from sococ import engine, market
from sococ.harness import preset, run_experiment

SEED = 1
DESK_REQUESTS = 10_000

# preset -> (event_digest, sha256(bins.csv), sha256(coalitions.csv),
#            commit digest)
GOLDEN = {
    "exp5": (
        "e4102925218fb346b0ef9e711a7000d3",
        "18fde2dbdb82da4fa263698ce4b252150ab81cb29f3693283b8a2f8aa877b0c9",
        "51f356d50624bd74698029f5cb328b6c1d32ddb91ff1c0ba0dceee56ea60bb04",
        "be4fd16dc1b2ebe3489a073b3efc04ab605b1ec6748e6e67f9dd9b428d5977f0",
    ),
    "exp6": (
        "cd676c8d571c7a7e90a010c0116f58c5",
        "d9bf9c849a181f3dbe4ebab25266fb3a9141af3227d8cd85f9fc66a2853ed6f5",
        "43c5c7541f41b6ad98b489ce18a229787a83f145022416a16e409b97229b770d",
        "79e414f0fe03b49bbf235e9b7dde7910fcde99e8de3a173b13b3729c77de0ef8",
    ),
    "exp1-desk": (
        "8272d5e62f3666983ef69bffec19eebc",
        "c7189acfe7c81223e776a0cae15ebd080252e7b16f9ec8c1460492fa1aebe9fe",
        "a50aaaee26682eed63019723123674c65b4ff5bc5dc3fd7043de336b17549406",
        "b66455ac9acd00aa82bd7c610bbd14e5b47759bdced55ea7f0f498d0cf846d9b",
    ),
    "exp2-desk": (
        "8272d5e62f3666983ef69bffec19eebc",
        "c7189acfe7c81223e776a0cae15ebd080252e7b16f9ec8c1460492fa1aebe9fe",
        "6cb97ff75fe64727a4f0eff72ff924470dc61ec53b2b89cb615c8531775d1501",
        "9afb7848f13f7cf1979f8e413fa40a4d03461b4d36f34ddb818cb440cb4f7957",
    ),
    "exp3-desk": (
        "b1d2417ed69131b83ff070b21cdb12d0",
        "62598e91a80c893807697c2c35a7e812b15fa6f8a21fa49810ecb96c3310bf10",
        "03dc0e538074c1ef73e61e583938142a50799331a6086aa8b48762b594280efe",
        "5a2edbc558f3b3af9c010fd342cb85de45c8231ad51919a14de30de62ab8dc08",
    ),
    "exp4-desk": (
        "38bda1297c7acd1618157877b336c505",
        "000cee7c2b24891b520b25184ec24719d5a50798dc6cea54e775f3f253c41e48",
        "4c1fcc1fa7843e70fa18b28adba996c3c4b8c8727efc04b20df02cf375f75112",
        "ec0350584e734f178941bd76453ca346ce42de7d5d8830cf892ee93afd981a45",
    ),
}


# exp2-desk with primary_contacts_per_core=10 and 5,000 requests, at SEED:
# the four pinned values and the number of ContactOrder.secondary calls
FALLBACK = (
    "3e6018031fd0a1377a55758b406bc0ed",
    "2536dd4d935e2a3a928132806c4d9add78bcd3d6fea3b40703f9accc0014e6a0",
    "82be4839bbf60057d22aec18a95fcd21b569a8c0aa6d8563ff43e8c399647dee",
    "cdaa794bf5101200bc2f973b44eabbf081589b1c43de04d11037a632870a3380",
)
FALLBACK_SECONDARY_CALLS = 670


def golden_preset(name):
    p = preset(name)
    if name.endswith("-desk"):
        p = replace(p, workload=replace(p.workload, n_requests=DESK_REQUESTS))
    return p


def file_sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pinned(p, out_dir, monkeypatch):
    """The four pinned values of one preset run at SEED."""
    commits = hashlib.sha256()
    original = engine.Fleet.commit

    def recording_commit(fleet, request, coalition):
        commits.update(np.int64(request.id).tobytes())
        commits.update(np.int64(coalition.size).tobytes())
        commits.update(np.asarray(coalition.member_ids, dtype="<i8").tobytes())
        commits.update(np.asarray(coalition.allocations, dtype="<f8").tobytes())
        return original(fleet, request, coalition)

    monkeypatch.setattr(engine.Fleet, "commit", recording_commit)
    report = run_experiment(p, SEED, out_dir)
    return (
        report.event_digest,
        file_sha256(out_dir / "bins.csv"),
        file_sha256(out_dir / "coalitions.csv"),
        commits.hexdigest(),
    )


@pytest.mark.parametrize(
    "name", ["exp5", "exp6", "exp1-desk", "exp2-desk", "exp3-desk", "exp4-desk"]
)
def test_preset_outputs_match_golden(name, tmp_path, monkeypatch):
    assert run_pinned(golden_preset(name), tmp_path, monkeypatch) == GOLDEN[name]


def test_secondary_fallback_outputs_match_golden(tmp_path, monkeypatch):
    base = preset("exp2-desk")
    p = replace(
        base,
        topology=replace(base.topology, primary_contacts_per_core=10),
        workload=replace(base.workload, n_requests=5_000),
    )
    calls = 0
    original = market.ContactOrder.secondary

    def counting_secondary(order, core):
        nonlocal calls
        calls += 1
        return original(order, core)

    monkeypatch.setattr(market.ContactOrder, "secondary", counting_secondary)
    pinned = run_pinned(p, tmp_path, monkeypatch)
    assert calls == FALLBACK_SECONDARY_CALLS
    assert pinned == FALLBACK
