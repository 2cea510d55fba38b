"""The golden corpus: the sha256 of every file the CLI emits, manifests
included, and of every command's stdout, on CI's smoke commands plus
``run``, ``decode-table`` and ``feasibility``, at a few hundred rounds, and
of one 20,000-round logged batch.
``batch`` reports its wall time on stdout, so that number is replaced by a
fixed token before hashing.

Each command runs in one scratch directory with relative ``--config`` and
``--out`` paths, so the manifests' bytes do not depend on where the suite
runs.  The configs are CI's (``tests/configs/``).  A change that keeps
every output byte-identical passes unedited; a declared byte change
re-pins the digests it moves and records the old and new ones.
"""

import contextlib
import hashlib
import io
import re
import shutil
from pathlib import Path

import pytest

from qdcsim import cli

CONFIGS = Path(__file__).parent / "configs"
ROUNDS = "300"

# output directory -> the command's arguments before --out
COMMANDS = {
    "batch": ["batch", "--round-log", "--rounds", ROUNDS],
    "sweep": ["sweep", "--rounds", ROUNDS],
    "security": ["security", "--rounds", ROUNDS],
    "wide-batch": ["batch", "--config", "wide.json", "--round-log", "--rounds", ROUNDS],
    "wide-security": ["security", "--config", "wide.json", "--rounds", ROUNDS],
    "wide-photon-security": ["security", "--config", "wide.json", "--eve",
                             "intercept-resend-photon", "--rounds", ROUNDS],
    "photon-security": ["security", "--eve", "intercept-resend-photon", "--rounds", ROUNDS],
    "k0-batch": ["batch", "--config", "k0.json", "--round-log", "--rounds", ROUNDS],
    "pnr-batch": ["batch", "--ideal-pnr", "--round-log", "--rounds", ROUNDS],
    "many-batch": ["batch", "--config", "many.json", "--round-log", "--rounds", ROUNDS],
    "many-security": ["security", "--config", "many.json", "--rounds", ROUNDS],
    # long enough that an ulp moved in a jump time shows (a 300-round log
    # can miss one: libm's log against numpy's SIMD log moves click times
    # first at line 646)
    "long-batch": ["batch", "--config", "wide.json", "--round-log", "--rounds", "20000"],
    "run": ["run"],
    "wide-run": ["run", "--config", "wide.json", "--message", "X"],
    "decode-table": ["decode-table"],
    "pnr-decode-table": ["decode-table", "--ideal-pnr"],
    "feasibility": ["feasibility"],
}

DIGESTS = {
    "batch/batch_summary.json": "1efe3405319b36f7337b5a9644b64b1448f3bd0364cc6ff61fc90168f84244ba",
    "batch/manifest.json": "624115f482aeadb83c80c3ce1cb99df7d6030fb248e53c88e3cfcca17a886abc",
    "batch/rounds.jsonl": "c6ac015f48ef03d875e5f8247cd33d497cc7c03b8f26266e9898aac6833d4829",
    "decode-table/decode_table.json":
        "8f31959ba15022ec3d52faa7cb46daf1585f865e267b7932f413054f7c17d7b0",
    "decode-table/manifest.json":
        "5e1caf42fb094101f2dd51c0a3d128d7d18205e74f614b08f18a715837fc6034",
    # re-pinned, with the feasibility stdout, when the transfer time took its
    # closed form: computed_transfer_time moved from 1.6793817546235017 to
    # ...015, both within 1.1e-16 relative of the true root (was 47aa1764...)
    "feasibility/feasibility.json":
        "5d6383b1d43a90e0eae35b3b0dfaeaf72478dc1d1dbab914f245e58ea39ff409",
    "feasibility/manifest.json": "70be159b9dc62e815cf6bdbb230b44cb445160489303971aec2a8b13289c295f",
    "k0-batch/batch_summary.json":
        "50b283a93bade4a66e3b5dc8a4dde4ae183deae34978293b970e6c7325463703",
    "k0-batch/manifest.json": "d1cdab44545d411b2cd9c7751749de5951f8e1727f2979fff42d6a6ac0bae4fa",
    "k0-batch/rounds.jsonl": "98f097097975525e813341b1e4b2f9435a7b6cb97d82b57b6f03e979e10c1d17",
    "long-batch/batch_summary.json":
        "c693013b00b2b161831062d9996e62b168d4ac086c1c2bf518ee038348fcc766",
    "long-batch/manifest.json":
        "111f823694a08c2647bd330c5424d4bbf572d2c48dbbdb3664776952bf1c31da",
    "long-batch/rounds.jsonl":
        "ec624b7d5f518d47767396235be7497058847aacbaa5f8c24c0352a6ef2480a7",
    "many-batch/batch_summary.json":
        "209104628e85a539575a3aa44468e39a9f5f1cb634b0457aae67fb281e1cbec6",
    "many-batch/manifest.json": "e282de1cccb6e0858c6515cd13528744b4362c7f4bf8679c9bc7dfcd45873373",
    # re-pinned, with wide-batch's, when plans compiled the receivers' bits by
    # parity: jump times past 2 receivers moved by up to 5e-14 (was da8774d8...)
    "many-batch/rounds.jsonl": "f9463c952288445a5c6497709ed99c6621d1f1e7859f00b2c9b7f82ffc4996b8",
    "many-security/manifest.json":
        "d8a2d52d4b7f761686255deb2bd7dc0c3c0b2d48b349632f747707ad94a8fb71",
    "many-security/security.json":
        "a36c1dd2c081d46e081f5e3d7ecf79b3d9bc0d2274aafbdb3dea2807529f5abd",
    "photon-security/manifest.json":
        "9c12a610e26601f0ca8a3d5d38dc0e79bd2ae736a4a5739795ce4be6aee96278",
    "photon-security/security.json":
        "1aa8b0168498b013052174436f5c542aac7f8d57fb6bd52521c31f58222fea72",
    "pnr-batch/batch_summary.json":
        "116cf1ffa057d99b0e25f801f7d8f903657eee57d58cd8a1cdb66e2dd7903999",
    "pnr-batch/manifest.json": "579b72866804a64d09fc26f9df276913e0a6c0003b0b44dc8fd832016190c1b6",
    "pnr-batch/rounds.jsonl": "78c3822723addad634474218268aacc54aab17778dd918eee5a1e6b5c435360f",
    "pnr-decode-table/decode_table.json":
        "c6f8f0020433616ba58b44a88782aa703280ca6d778f458e9675361326d72455",
    "pnr-decode-table/manifest.json":
        "ee0329fafba6fe469a01ae649afb036f20e4e9dc474bf7fad69084e5eabba992",
    "run/manifest.json": "4934c693c8128d2c2ff45970b6a9978288e8491ec0f2cd73e1e664a309ccfdb1",
    "run/round.json": "daf81af6b525953a7ad66be6341d326d8df9a4459f8cea44bb1d44bffdfe8d9d",
    "security/manifest.json": "06114add2fffdad9cdf60417266d1ce4db03b03d95f7b7bce7a187da11e6aa9d",
    "security/security.json": "6b8c4983f5c10dac821b523dffe09a8f86d1e47768909864ee592917e204b1dd",
    "sweep/manifest.json": "58f1da94ed5bd3bae9fe03bd1c4313a7151737c1b09fc60dfc2fa9951b31fcec",
    "sweep/sweep.csv": "cccd5adafdec784ae1277250f63c98a55bd1a9915c97c86a59a6ffee7088bf16",
    "wide-batch/batch_summary.json":
        "cd2bd62692c65eb2dd99dc775e223f69a97ec248c7079850f199327c619fc499",
    "wide-batch/manifest.json": "3d24d056415d242e12b5b85ea24f57f4229d6764101e9e7897e355290c14ed24",
    # (was f8bbcede...)
    "wide-batch/rounds.jsonl": "17092d2673fa08ebfa8ce7d8f02b6442f942de7229ed99878d1241e39328ffab",
    "wide-photon-security/manifest.json":
        "765f2ecd5534a626d1cab168bebcb5b2f3c1f2e3d5e4022d8bd1c6b556117441",
    "wide-photon-security/security.json":
        "57bdb24646557e2c05e490b561e4894a27929ee875f19576ca16c518550bf83c",
    "wide-run/manifest.json": "78d78b0f0b82333ed11b3b138b6e69a639ab6928cc9c0a29961685d4667bbf03",
    "wide-run/round.json": "1de4a88da62cb05ae9471350c2bb59ed5681edae8db2a728ba68fe6a6c88520c",
    "wide-security/manifest.json":
        "8b656102e0680ed7c1c5d4abf22627f1338fd37542066d39b87ff1db0b29a033",
    "wide-security/security.json":
        "65fb335009b4bb1b0e84fdcafc517dec6ac4f0519addb69b63b1c9f0edcb872f",
}


# output directory -> sha256 of the command's stdout, wall time replaced
STDOUT_DIGESTS = {
    "batch": "15efab8d76f66494c3a8bda949667a00f8abed47e1a7b381f27ef00654b3108b",
    "sweep": "cccd5adafdec784ae1277250f63c98a55bd1a9915c97c86a59a6ffee7088bf16",
    "security": "6b8c4983f5c10dac821b523dffe09a8f86d1e47768909864ee592917e204b1dd",
    "wide-batch": "9bd4fe1d7fa3600b3d7068dc4e11d061d602456009d25589d67cae977641a377",
    "wide-security": "65fb335009b4bb1b0e84fdcafc517dec6ac4f0519addb69b63b1c9f0edcb872f",
    "wide-photon-security": "57bdb24646557e2c05e490b561e4894a27929ee875f19576ca16c518550bf83c",
    "photon-security": "1aa8b0168498b013052174436f5c542aac7f8d57fb6bd52521c31f58222fea72",
    "k0-batch": "a866818ce4f0a9b65ed387aabb600c0678214d586d6b06cf6e0f1440eb4ca4e0",
    "pnr-batch": "ff2fda994a1d937aca72d3f4c1536d74ed06ac9d20e1571032fd822922c2490c",
    "many-batch": "e70600db4a1c088f0c986cf383322b323e9c0fcb043004ec2ba851c8acf5ab29",
    "many-security": "a36c1dd2c081d46e081f5e3d7ecf79b3d9bc0d2274aafbdb3dea2807529f5abd",
    "long-batch": "6db37d8c30c13052899898419f6a94730d20ca3130e0a5dd5a0eabf7f93cf802",
    "run": "daf81af6b525953a7ad66be6341d326d8df9a4459f8cea44bb1d44bffdfe8d9d",
    "wide-run": "1de4a88da62cb05ae9471350c2bb59ed5681edae8db2a728ba68fe6a6c88520c",
    "decode-table": "8f31959ba15022ec3d52faa7cb46daf1585f865e267b7932f413054f7c17d7b0",
    "pnr-decode-table": "c6f8f0020433616ba58b44a88782aa703280ca6d778f458e9675361326d72455",
    # (was ca60020d...)
    "feasibility": "3457dcdfccd6dd9aeed09aa784f134130e20e3e8cfc4fcca4973a90e7f335463",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Runs every command in one scratch directory holding CI's configs:
    each command's exit code, the sha256 of every emitted file by its
    relative path, and the sha256 of each command's stdout."""
    root = tmp_path_factory.mktemp("corpus")
    for config in CONFIGS.glob("*.json"):
        shutil.copy(config, root)
    codes, stdouts = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for out, argv in COMMANDS.items():
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                codes[out] = cli.main([*argv, "--out", out])
            text = re.sub(r'"wall_time_s": [^,}]+', '"wall_time_s": <float>', stdout.getvalue())
            stdouts[out] = _sha256(text.encode())
    digests = {
        path.relative_to(root).as_posix(): _sha256(path.read_bytes())
        for out in COMMANDS for path in sorted((root / out).glob("*"))
    }
    return codes, digests, stdouts


@pytest.mark.parametrize("out", COMMANDS)
def test_command_bytes(out, corpus):
    codes, digests, _ = corpus
    assert codes[out] == 0
    got = {path: digest for path, digest in digests.items() if path.split("/")[0] == out}
    assert got == {path: digest for path, digest in DIGESTS.items() if path.split("/")[0] == out}


def test_corpus_covers_every_emitted_file(corpus):
    assert set(corpus[1]) == set(DIGESTS)
    assert {path.split("/")[0] for path in DIGESTS} == set(COMMANDS)


@pytest.mark.parametrize("out", COMMANDS)
def test_command_stdout(out, corpus):
    assert corpus[2][out] == STDOUT_DIGESTS[out]


def test_stdout_of_every_command_pinned():
    assert set(STDOUT_DIGESTS) == set(COMMANDS)
