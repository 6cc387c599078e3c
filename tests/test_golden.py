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
        "d5fc52f34ec7ece2641f3273fbed0c9e358170a809692138fa665e907c390d19",
        "03a876f7f1fbe49a147fd70a91356a6dfb96210e6db5a6e7ab55678bd506893f",
    ),
    "exp2-desk": (
        "ad5e0d44628fa1ab9cb42e8b63764dcf",
        "34d7c8a7f6b5d47a55d7179abf0ebf6a3a704185955e4ac37d4eec511e1b3876",
        "e537ac4f385360d7b8432a8b6132506099fbae31f0529e353452769966a00513",
        "855e0eb8de6685dd9e402bb6037404e7908aca0fe5f608c85d94fb3e65fc06bf",
    ),
    "exp3-desk": (
        "3982877b39ee10c8efc1bb30c8fef2b7",
        "9576accd19c0abda78bbd17423a8f6b8c3655405a76d1e5e0fb5e497ff4faf68",
        "9d506d8f5f603e1fb08d69964e1f6d6c57abd4aac5dea6a0d54fe7861feaf292",
        "745deed79cbfe940406274c841292f66efb8cd232eee51e994ca0b5df8fec488",
    ),
    "exp4-desk": (
        "59a339363cc0e05b6e28a9de9f38638e",
        "f7244ece1894afa6a343ef175e6b81fcaf67c5cd8403eb124fab56ca250d5f43",
        "cecbabde0696614901a60f28fcbda8747e8b0a6b6ce304eb1de39788eed4a7d9",
        "4b0e9ab8997d9f048fef15456d701a93ff8e75fdce935e4d7843a14e0d9dbcf5",
    ),
    "scale": (
        "f4a1d27d8f2fd230c4140222410c5be6",
        "d43c9a7a176f59fbaa8619a60a840643ff930f8ae63a23e09f75205db1270f0b",
        "6b5d093dcaa015cbbe6b6b63b520a81a1ae911bfe4d2071fb19f5cf8dacb81bc",
        "164c25ccf0a5b06515836b312945c72ba040dd5b8c338e5b94ce206be8d8c3d7",
    ),
}

# preset -> sha256(summary.json)
SUMMARY = {
    "exp5": "378c836edc87dfd06da45149f866409b94e3e9989bf4af9d0a1a702785e86ccb",
    "exp6": "79b2273e742811947ea9e2fbca0fe2c510cc811b9a8db90fe51674d0243a6506",
    "exp1-desk": "d5b724a29db8c66badbb3aaea2f630680684b09bdfb2584660df31d4c2170b4f",
    "exp2-desk": "d6e6bf5310b04e7598070c964f1eee980350034a8726111916ecb09ad2c9ee29",
    "exp3-desk": "15ff04c122eeab4313c3b66bdea9bd0e142d14ab17cf9ffa2ab93067b113fbad",
    "exp4-desk": "c02d7470ab1f2adeccdc217610119f3d9814426eaa8e6db321a786f0191269ef",
    "scale": "66df20e0175d89b23b033bf1a654839b574e500758643fd97d090c2a6d439dbe",
}

# preset -> sha256 of the "<d" bytes of every won bid's price, in arrival order
PRICES = {
    "exp5": "404fa6a030d7266be8bfdc410386f920ca452e4185bce849b114381a6c534c1d",
    "exp6": "5a89a808d9102cca04baccf570704fba503fad064132652381f49eb747bf3bea",
    "exp1-desk": "5fcbf08f6ab1c3533836a01a151eef691c47cdb9835526707419080f51ebb8a4",
    "exp2-desk": "3b45b0900223471a24a284cd55e5da93b0bc8422212313cd43e5c30d0a9b3024",
    "exp3-desk": "997e6a000422fd4750a030422646d88400ace1b18a759a807970444daa8d3d8c",
    "exp4-desk": "dcd19d76864c2ebdbc73de55f9410a2f10354e96eb65256b2810930261186276",
    "scale": "df248d1c92a26b56d21fc9457b6f0891565ee549dde1a9a68b5cfd326a19eadf",
}


# exp2-desk with primary_contacts_per_core=10 and 5,000 requests, at SEED:
# the four pinned values and the number of ContactOrder.secondary calls
FALLBACK = (
    "8f158d3cecd0c21708c95f45e26a9b9b",
    "5d241d93e5dc8f5441e87dbfd3854efb27f1e3d4f857acfba5ff9b1f29ec26a6",
    "5ba3dfe87d637f11237c45c6cf0e5e645b34c83d3bec5f4bdff052a8cb1d0317",
    "6b16646630666eaf9e4f8c055f1e5531a8c7c4427e499883e6098819603d22db",
)
FALLBACK_SECONDARY_CALLS = 707
FALLBACK_SUMMARY = "695e55352ac79c477c1eafb1c233eddeb1dabb17db18ba6ef7510bdb6fae8257"


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
