"""Golden outputs of every Monte-Carlo experiment.

Each case runs one experiment through the ``mc`` subcommand at a small fixed
(seed, n_paths) and compares the SHA-256 of its ``results.csv``, ``plot.csv``
and ``report.json`` with digests recorded before the Monte-Carlo stack was
last restructured.  A refactor of the path driver, the families or the
writers must leave every byte of these files unchanged.
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
    ("suicide", 3, 200, None): (
        "de53b715f2465597db4ddf2c35b09b16f706b73049e7aac2369b8095f24b65d5",
        "22cbf5fb43efad9c761ab45c0daf82f558f29e8a2dfb56eeaa2dd25c9f83d88f",
        "0256741b465d6882b25bf5f3b25f3ce12ea979ce1cee09abd285787e6beeddf7",
    ),
    ("fatou", 3, 20, None): (
        "16c751b699d85a88059af784dcddef8005e499302b5ba8716a1f97b089c84f2f",
        "3c5f230a0412010697b41fbaf40f6f07dd5057022c95dfebb69267a553e4d5d5",
        "02df47794774146677af62be92ddd6c85e4b2fcbb72c19c1e5d9d475052b95ba",
    ),
    ("mass_redirect", 3, 200, None): (
        "16083d558d7e69874f016f0e53fc910e6af0ab8a68592f03c2a592fbc9a92bc2",
        EMPTY_PLOT,
        "4f69470be55a58e122ac410f9974316741a5cc9034a7bce69586fd32ed616357",
    ),
    ("split_limit", 3, 2000, None): (
        "fd69ed195f29dbfec3d6295a645e3c6befa5c5d2ba04ab560e0cdbba350835b4",
        EMPTY_PLOT,
        "19cc90495f62a647e4d19750a14f7978ba049bf04b4f1964466c70116d0c1696",
    ),
    ("split_limit", 5, 500, '{"n": 1}'): (
        "1200976c62c5ca2666498ca43d592f2b687dbffa8ff5f0bc1d0dd85c2fc42793",
        EMPTY_PLOT,
        "a7e24604ebfb89442ddf4dc534f30e6d942dccfff7297429962b1d3d326861cf",
    ),
    ("extended", 3, 200, None): (
        "93b0b779b1eb5c0a640eaea9d62d1ba2f12d99349ead03fb9b625b36bb496e73",
        EMPTY_PLOT,
        "5c5b20f1b31ec6f21a52536a63f426bf53915f37bc38f4661c4c9cddb1c38bfa",
    ),
    ("bm_check", 3, 500, None): (
        "80891f5199af0b725c801dd7ab433b5efdcd3ef5553260639026c886a9683ba9",
        EMPTY_PLOT,
        "258bf4cd9ef57189a9b2e40cd18b2acdb51b44881c1df92ca34cebe7cbbbf98e",
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
