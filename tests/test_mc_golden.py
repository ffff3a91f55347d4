"""Golden outputs of every Monte-Carlo experiment.

Each case runs one experiment through the ``mc`` subcommand at a small fixed
(seed, n_paths) and compares the SHA-256 of its ``results.csv``, ``plot.csv``
and ``report.json`` with recorded digests.  A refactor of the path driver,
the families or the writers must leave every byte of these files unchanged.
The digests were recorded before the per-path driver was restructured and
kept through the move to block-drawn paths.  Two experiments' digests were
re-recorded: ``mass_redirect``'s, after the localized family was fixed to
hold its level at a jump time (clock 0) instead of reading the bridge at
the first ladder clock, and ``split_limit``'s results and report, after
their always-zero ``cross_mass`` field was dropped (every other value in
them is unchanged).

The experiments that read a family on a time grid (``single_jump``,
``suicide``, ``bm_check``, ``mass_redirect``, ``extended``, ``fatou``) also
have one case at 2 x chunk + 1 paths for a chunk of ``streams.CHUNK_DRAWS``
path values (4,443 paths of 59 grid times, 7,943 of 33, 903 of 290, 1,913
of 137 and 4,032 of 65).  Every read loops over the blocks of
``streams.draw_blocks``: at these grids blocks of ``CHUNK_PATHS`` rows, 99
for ``mass_redirect``'s 2,628 normals a path, which those counts span many
times over and end inside of.  ``single_jump`` and ``suicide`` add each
block to their per-time sums, so their 8,887 paths also span the 1,110-path
chunks they summed in before the sums moved onto the blocks; the other
four keep their columns of each block.  So every output is pinned across
chunk and block boundaries.  The last three were recorded while those
experiments still drew a whole batch.
"""

import hashlib
import json

import pytest

from follmer_lab.cli import main
from follmer_lab.mc.gallery import EXPERIMENTS

# plot.csv of an experiment without plot series: the header line only
EMPTY_PLOT = "91638440fd7e36932c3dbd75e02815ed29362e15f8cf04b46a26741348f2fec2"

# (experiment, seed, n_paths, params) -> digests of results.csv, plot.csv, report.json
GOLDEN = {
    ("exp_decay", 3, 500, None): (
        "6df42f8dae1c61082ddb8c8f5db461e1f58f33ba4e1afeb77aeb3f14a7bf7773",
        "da5eb6b08a1367ac5961c14845de69e33533a2f1d119d670b1f57f7c339970ef",
        "a5e3f1156a166683b50725bb2ab91a4e079e42097e936c6518e4c63cc5c77e78",
    ),
    ("reciprocal_bessel", 3, 200, None): (
        "cf29691897f6ef726c321b18e7a36b62603bd49c6aa03d6042c2b8ad28f28c65",
        "30fe6389170c523b395f07ed04138c37757a1e21ef0f57bc1ee081b01344189c",
        "fbc13ad85ac8773d5a57ab5d35aded19a59ded626d608103c643db2455d915f7",
    ),
    ("uniform_rho", 3, 200, None): (
        "12d4f060bb91fad63da3fda41557354e37172e4809a77fca586595058726e897",
        EMPTY_PLOT,
        "a46846636a4b2d0db0a8c09f57680968c727bc58557892cf185b3f81ca6841f2",
    ),
    ("single_jump", 3, 300, None): (
        "6b4b25d386333880aca3e98fce7d27f73ef4a0c59a9f1a556c2d6ad4f3a04471",
        "53f7fa7156e070bee8d579faa787cc709cf941947166cb3110d09e25af2af6aa",
        "424a325f1fc69c4e1610fa6e24c30c9319c1e6da9459ace33b679332a553251f",
    ),
    ("single_jump", 3, 8887, None): (
        "778f6934864aa8809b1c51ef71b57421595a225944b58a1f2f7d4b5f52c2d2e8",
        "9c0d2d75fe284e49155a5977e284343c202ea065401f192bf5b754d0e28a040b",
        "ab6a3219a54843d85a26c6c2760079b25e29c3e16f3e9b98f0f5326706874920",
    ),
    ("suicide", 3, 200, None): (
        "de53b715f2465597db4ddf2c35b09b16f706b73049e7aac2369b8095f24b65d5",
        "22cbf5fb43efad9c761ab45c0daf82f558f29e8a2dfb56eeaa2dd25c9f83d88f",
        "0256741b465d6882b25bf5f3b25f3ce12ea979ce1cee09abd285787e6beeddf7",
    ),
    ("suicide", 3, 8887, None): (
        "de53b715f2465597db4ddf2c35b09b16f706b73049e7aac2369b8095f24b65d5",
        "6500f870385d1677130b846798ddd71f27c4e9de81b081f897161c9bd59ba0fd",
        "ebee3c5b3d3d81ad9d2a864afb4793bdfdd9dd6bb8a0dae4d8f5da83d33cde4c",
    ),
    ("fatou", 3, 20, None): (
        "16c751b699d85a88059af784dcddef8005e499302b5ba8716a1f97b089c84f2f",
        "3c5f230a0412010697b41fbaf40f6f07dd5057022c95dfebb69267a553e4d5d5",
        "02df47794774146677af62be92ddd6c85e4b2fcbb72c19c1e5d9d475052b95ba",
    ),
    ("fatou", 3, 8065, None): (
        "3f51b49a0984655021f7bf0a847a1cd2cfb4657680b822818d880716ababec23",
        "3c5f230a0412010697b41fbaf40f6f07dd5057022c95dfebb69267a553e4d5d5",
        "02df47794774146677af62be92ddd6c85e4b2fcbb72c19c1e5d9d475052b95ba",
    ),
    ("mass_redirect", 3, 200, None): (
        "9e519aee1670f9c77a75109d8e2dc6f8b341e420f197d35eb8db888be2ba7318",
        EMPTY_PLOT,
        "81461832ffb0ba22d991c0c0773f4a1c70bf063d09c34a110de8249cd8a1ef9f",
    ),
    ("mass_redirect", 3, 1807, None): (
        "4adec25256c59ceb77b56496beea8d680ec862a7809edd9b757d865e1b33924e",
        EMPTY_PLOT,
        "a978ecac0841b40f8124668cd81a314afe1f806e5c15cb71e153c13459214931",
    ),
    ("split_limit", 3, 2000, None): (
        "fecdf748a834650541bb13627ecfa2da38927dad1ae63f59d93fa1508bddb775",
        EMPTY_PLOT,
        "245de924acae3b07774255b2cbe2c6a8c5a8c4023f82f2028b530383cb316712",
    ),
    ("split_limit", 5, 500, '{"n": 1}'): (
        "0ad6904461bee224ff9c7a77cf5a6c65583e1e089c700343da955386abddb14f",
        EMPTY_PLOT,
        "41c2f1bbe3bc5eff3e959e335a416844990425363b7aec425c63d9026e0e4d8b",
    ),
    ("extended", 3, 200, None): (
        "93b0b779b1eb5c0a640eaea9d62d1ba2f12d99349ead03fb9b625b36bb496e73",
        EMPTY_PLOT,
        "5c5b20f1b31ec6f21a52536a63f426bf53915f37bc38f4661c4c9cddb1c38bfa",
    ),
    ("extended", 3, 3827, None): (
        "a81d9051f0a3ad41bb290b3980d7139419961f414a457824033fd99d46e5f108",
        EMPTY_PLOT,
        "5c5b20f1b31ec6f21a52536a63f426bf53915f37bc38f4661c4c9cddb1c38bfa",
    ),
    ("bm_check", 3, 500, None): (
        "80891f5199af0b725c801dd7ab433b5efdcd3ef5553260639026c886a9683ba9",
        EMPTY_PLOT,
        "258bf4cd9ef57189a9b2e40cd18b2acdb51b44881c1df92ca34cebe7cbbbf98e",
    ),
    ("bm_check", 3, 15887, None): (
        "641f836f5ab7f81b35e5e25598b803664e878fd70166d96425dd077ba3610d82",
        EMPTY_PLOT,
        "044d349450a0d917fae021d5fbbe1df082e8d6535fa029f05f6013be2333b53f",
    ),
}

FILES = ("results.csv", "plot.csv", "report.json")


def test_golden_cases_cover_every_experiment():
    assert {name for name, _, _, _ in GOLDEN} == set(EXPERIMENTS)


@pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
def test_mc_outputs_match_golden_digests(case, tmp_path, capsys):
    name, seed, n_paths, params = case
    manifest = {
        "experiment": name,
        "seed": seed,
        "n_paths": n_paths,
        "params": json.loads(params) if params else {},
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["mc", str(mpath), "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in FILES)
    assert digests == GOLDEN[case]
