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

The sha256 of `summary.json` is pinned as well, in `SUMMARY`: it covers the
totals and the config echo, which the four values above do not. So are the
bid prices, in `PRICES`: the sha256 of every won bid's price as a
little-endian double, in arrival order. No report file carries a price.

The desk presets are cut from 10^5 to 10^4 requests to keep the run fast.
exp5 and exp6 run at their published 10^3 requests. `scale` is exp3 at
N=200,000, cut to 2,000 requests: the only pin whose leaders scan 500-wide
primary rows, and whose contacts come from the rejection sampler.

No preset reaches the secondary-contact fallback: with 100 primary contacts
per core a leader never exhausts its primary list. One more pin covers it:
exp2-desk with 10 primary contacts per core, cut to 5,000 requests, where
leaders fall back several hundred times. That pin also counts the
`ContactOrder.secondary` calls, so it fails if the run stops falling back.

A change that moves any of these values changes simulated behaviour; it
must say which value moved and why the new behaviour is intended.
"""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from sococ import engine, market
from sococ.harness import preset, run_experiment

SEED = 1
DESK_REQUESTS = 10_000
SCALE_N_CORE = 200_000
SCALE_REQUESTS = 2_000

# preset -> (event_digest, sha256(bins.csv), sha256(coalitions.csv),
#            commit digest)
GOLDEN = {
    "exp5": (
        "e169ca33928aa0b053747483a28b87af",
        "6e7464531aa087199b48018804dcd489fe98e4a13a0d177fc79d08c10a23422e",
        "7c7fb019e511c39a4543e27c862fcf760b1eb46a570d0a01882b82fa3b306fbe",
        "74d2bc44eb69136db45c693ae7808f981f8b3913c548808207742a051520d5cc",
    ),
    "exp6": (
        "543a225b0df20028ac15bcbbc957dc6f",
        "0a71ff2e7ae35426c8a81d1cccd9f3d5dbc080993874707efddaef31d25df99c",
        "cff3ec95e1617dd52b27cbb5e8976ab2a969537665135fe8e210192a9a5d24fe",
        "223e5e69bf2dc9c04d94971142b7d1ef2b81040b67a0282208d8fa5fe238759c",
    ),
    "exp1-desk": (
        "ad5e0d44628fa1ab9cb42e8b63764dcf",
        "34d7c8a7f6b5d47a55d7179abf0ebf6a3a704185955e4ac37d4eec511e1b3876",
        "e0ee8c5425b1009c5a788b8ee7dcb41922e811dced91f17987569e6c450d9305",
        "52e8446bc18063224c5171e943ca847b05eca40c95c43dbf1820af81f0764eec",
    ),
    "exp2-desk": (
        "ad5e0d44628fa1ab9cb42e8b63764dcf",
        "34d7c8a7f6b5d47a55d7179abf0ebf6a3a704185955e4ac37d4eec511e1b3876",
        "9e62341489160af62b9dab532526815830e7adce20740c1e97238c97bc45f708",
        "5cf14b4a374f5d48ce4707a27503d576add8281f573b0cbd9be5b26a9f604c87",
    ),
    "exp3-desk": (
        "77efa2620027ca9ac899733c7b4f89d3",
        "e8f498f8b287514a520b0591eb65b0801de2e3471bf24845cee2461e2fa81bdd",
        "09b8f4a9fbb1f5113b0d1c48cea26021a8eb3b8fc88cfc6daefc5ce69334221e",
        "c0aa71c06aba6cab0bc32fc86793df618e1215d77139c554d28146238b3f4148",
    ),
    "exp4-desk": (
        "5ad0e1788b17f307dc985939a512f513",
        "91d0b60bf979db5c0a95c22e120026eb9ddd1163e71315d63d4d79fb5ea04863",
        "c09e624b12e1e41cb1073baedf3433b97b4700a1bcfa4ab7447acbeaf08ffc5b",
        "84f78b8e6b9e3dc1c4086f80200307cc7f9f6c9591124b9c777a5037fc702c43",
    ),
    "scale": (
        "45147f902d25f6f7141f4ad3b7847ce2",
        "dc9b4c9cbe6d94a460c415e3a4e373eaf94903a292556dae7c1a05f27c5ca2cd",
        "8fba146215e57d1b6fa220851799989696c43a5953097caa9440ac9ae1d99580",
        "e44ae02fe75d69d7f280a75bc9be9ffcf081e24dd34f1e243788ec1e02e90ec0",
    ),
}

# preset -> sha256(summary.json)
SUMMARY = {
    "exp5": "c8923ca47bb9998578ce5633de5606cf2de712665424a954e08bc1f48920c32c",
    "exp6": "fde610b08df5ff0535c7a0f77b38367bd27d892b043d02f5419fe7470548be2c",
    "exp1-desk": "ce0919ecc08b9b3be36c6b547cd4940675eef77510cf12f1d920f86823ae420c",
    "exp2-desk": "bededb0ae16a726182587079d4bdfd138be9b4ff8f4f9b2dda8eca97a73360be",
    "exp3-desk": "c0ee9a5577ea2e26175923603d656fa74498839b09fbfd8e738496abd539f251",
    "exp4-desk": "326e66d1061faf691d0af1e64cccd8bdd920619c405f1061199cbbd44ee623ce",
    "scale": "124d6672d9088353cfd8900e92fee4c915b3eb7e99bd3db78ce9ae60c68cff1f",
}

# preset -> sha256 of the "<d" bytes of every won bid's price, in arrival order
PRICES = {
    "exp5": "c5922e305fd059ef16d2b08afeaa8e999c3d69b9d368c137868b3b455f7084e2",
    "exp6": "ad9a4b0eb4d748b54b3e77a7e7d285c1cb0ebeabd7f67d772e6f2fc8c5278259",
    "exp1-desk": "ff4faa444937c3e39171c2222fc5a18f6829a087e95b7d9cce99637b5f92581c",
    "exp2-desk": "eefc02d66ea0c21127c307f275e3d03e6c4174c77f5b7df65044726a17d867a2",
    "exp3-desk": "c58c3d6a1a352e9289396129240a202b30a8d63acaf7ece5f9e1875afc6bdb72",
    "exp4-desk": "199e74939c13717b1ba03faad516823230eac56a736b74fe594a38b87701afad",
    "scale": "8d50a91e6da06277e23b69c6b4d075181b8642ac5cd562866d459473af12e9b3",
}


# exp2-desk with primary_contacts_per_core=10 and 5,000 requests, at SEED:
# the four pinned values and the number of ContactOrder.secondary calls
FALLBACK = (
    "8f158d3cecd0c21708c95f45e26a9b9b",
    "5d241d93e5dc8f5441e87dbfd3854efb27f1e3d4f857acfba5ff9b1f29ec26a6",
    "eb65ffef73a548f6bcbbd8645c214c83d54bb4f452171e507a164f14f8b0a649",
    "41ee080c884f26172d5534ade45f1153d8a58a6df1f8affe023ca6933f030d37",
)
FALLBACK_SECONDARY_CALLS = 721
FALLBACK_SUMMARY = "61ab697d8f2018a7f1b54d8534224df9c585ff73126ced5aabd5753c6bfc0af2"


def golden_preset(name):
    if name == "scale":
        p = preset("exp3")
        return replace(
            p, name="scale", scale_note="exp3 at N=200,000",
            topology=replace(p.topology, n_core=SCALE_N_CORE),
            workload=replace(p.workload, n_requests=SCALE_REQUESTS),
        )
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
    "name", ["exp5", "exp6", "exp1-desk", "exp2-desk", "exp3-desk", "exp4-desk", "scale"]
)
def test_preset_outputs_match_golden(name, tmp_path, monkeypatch):
    prices = hashlib.sha256()
    original = market.price_bid

    def recording_price_bid(coalition, fleet):
        bid = original(coalition, fleet)
        prices.update(struct.pack("<d", bid.price))
        return bid

    monkeypatch.setattr(market, "price_bid", recording_price_bid)
    assert run_pinned(golden_preset(name), tmp_path, monkeypatch) == GOLDEN[name]
    assert file_sha256(tmp_path / "summary.json") == SUMMARY[name]
    assert prices.hexdigest() == PRICES[name]


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
    assert file_sha256(tmp_path / "summary.json") == FALLBACK_SUMMARY
