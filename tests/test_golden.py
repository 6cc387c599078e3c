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
primary rows. exp5 and exp6 each draw their 2 of 2 periphery servers as
the complement of nothing left out; every other list is drawn directly.

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
        "ae3fdbe0d55f0b69ac876a6a8eeafb24",
        "e4a1575c0d50def79f39fdc50af7b58a43c079b23347b7b26054bbaede6c0315",
        "003d94835abf28094c3b4a77c7b1c2b61c32ee49d0b1b29d1a8a48b256c04306",
        "659f4ac38ff9dd3cc4f7009c69471563785f4dff14a2db412ac297440f8e6b8c",
    ),
    "exp6": (
        "32741b09522d8c41e3543dd5be35bcb2",
        "796910b46f03e88c17059e96178e778dd37c534ac905b3cdc0dc8f8c088527bc",
        "9c10306a1031f8dda47c682d52ec59ab9081d321c827857093c93523180dd270",
        "2f846e5615b165e87848c942475bd38668d8b88185490a9756ab4b5414b80168",
    ),
    "exp1-desk": (
        "ad5e0d44628fa1ab9cb42e8b63764dcf",
        "34d7c8a7f6b5d47a55d7179abf0ebf6a3a704185955e4ac37d4eec511e1b3876",
        "912442f45630f305bbb1861b1dcd991184f794b90bdb0d702f385280aaf3f750",
        "4bc45ad571406e2cab2e8b2d9df0d3005fe40f3380dce3261b3641b4ffcf280f",
    ),
    "exp2-desk": (
        "ad5e0d44628fa1ab9cb42e8b63764dcf",
        "34d7c8a7f6b5d47a55d7179abf0ebf6a3a704185955e4ac37d4eec511e1b3876",
        "b7abd5fbf45c3e7318ae0d72d2eae42bf4f21f9119dca3116719b90835490d96",
        "fb2d5f1e5d1878309dd8760d9a57d9da533e266c162dd172695f76a8ad7d7d53",
    ),
    "exp3-desk": (
        "6fd1e8f832f76ead2ef86e4505324800",
        "3b5aacb9d2520dc64f9a38aff2780eb3d2d342ffa8f05f56ed6b19de09ccfc07",
        "a4454da7a9e2b4f3e2dd16ccd1c8a4077f55ffa62e0eafab0b85ac000b292dde",
        "7403b6c72da7ac813b14e5c12c631649e0f40c74f944689522bec1d1f9bc246d",
    ),
    "exp4-desk": (
        "a39792a4255686d9a994edd5004311c8",
        "06a39bde95e93342ea477bf0a8d4057e8196604abe9b2e6fb2056b2f29214925",
        "b3ca2de6fc2a9aaf87bed4d5f429b4be6ad8b8adcad6276e25aabfc08444d46b",
        "ea1a78e0497aaf62c79fade266d3247bae391042d1167358761227c83a331e06",
    ),
    "scale": (
        "38b87f74e75ceb8126757e6a55d2515d",
        "65d5af0901582762b0dfe2d02d29a53d2f5e694d2cc82c2eef143a3788ddee10",
        "0e77dd2d461b44957230566721fb0a11b136489f3e9015aeea1acdb5e48be836",
        "c2bde221ee761dba9803ec11ed1055ba73a3bb47dfd9d60c7396a7f407241c26",
    ),
}

# preset -> sha256(summary.json)
SUMMARY = {
    "exp5": "378c836edc87dfd06da45149f866409b94e3e9989bf4af9d0a1a702785e86ccb",
    "exp6": "79b2273e742811947ea9e2fbca0fe2c510cc811b9a8db90fe51674d0243a6506",
    "exp1-desk": "5102f248b9c81486ce8730dcc6c01f950e52a21b8bec6c7c9a3c43d508d302fe",
    "exp2-desk": "55ecce338e50de720627e7d9bdb6841e09f0875896320f43b32517e07a808b32",
    "exp3-desk": "2b0cfaf43c08d29546fcd9918b268da069ede783e7fa38f42b32a60cfa349524",
    "exp4-desk": "810faf06c242af8ed137da6b7d646ffe7538ad64640545c34b5988040fc49826",
    "scale": "b9ab272d9aaf535e6d51f348fac9dbb93988899ebf3e7203128e9f944def37c0",
}

# preset -> sha256 of the "<d" bytes of every won bid's price, in arrival order
PRICES = {
    "exp5": "404fa6a030d7266be8bfdc410386f920ca452e4185bce849b114381a6c534c1d",
    "exp6": "5a89a808d9102cca04baccf570704fba503fad064132652381f49eb747bf3bea",
    "exp1-desk": "5d0b4c86656b67e7152c99cda2fdb56136e47d968b5f4a2137cade1623a31ea3",
    "exp2-desk": "3d61dc85b845edad81863a65c54e06051b9834aaf2173e8c2df5fe307432e79a",
    "exp3-desk": "e36954b887bf8fb0e3599bac544f2c4b75bf2e66f667f00ec072a14fe6c07293",
    "exp4-desk": "751b0ebbcae3b6b8dda6ce0ef6d79ff6e144fd3ce0b5a38d5899a25363560ff6",
    "scale": "89b052cc4386c32ee21b9cbe44881e519b08f0baf515597ec0a6794cce17ac56",
}


# exp2-desk with primary_contacts_per_core=10 and 5,000 requests, at SEED:
# the four pinned values and the number of ContactOrder.secondary calls
FALLBACK = (
    "8f158d3cecd0c21708c95f45e26a9b9b",
    "5d241d93e5dc8f5441e87dbfd3854efb27f1e3d4f857acfba5ff9b1f29ec26a6",
    "015fd7163d69f2d25bedd3efb496c83af9ca45085d518e477656dc22175a0022",
    "9e1c52b7955ca17cef77099652c13321301c1e374f1a5577f1ed58857b427564",
)
FALLBACK_SECONDARY_CALLS = 667
FALLBACK_SUMMARY = "0b680e502db8114ba8753819c5340afb52bcd9cb042330d30c9b7fa0fa8288d7"


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
