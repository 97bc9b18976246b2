"""The bytes the CLI writes, pinned for every command and format.

Each case runs ``cli.main`` in process and compares its exit code and
the sha256 of what it wrote (stdout, or the ``-o`` file) with the
values the CLI gave before its handlers returned their payloads. "@" in
an argv stands for a file holding the index-6 sublattice basis of
(13,17,29), "%" for a path that does not exist; the other cases use
kernel bases. A change to any output byte, to where it goes or to an
exit code fails here.
"""
import hashlib

import pytest

import genfrob.cli as cli

INDEX6 = "-17 13 0\n-696 522 6\n"


def _run(argv, tmp_path, capsys):
    """The exit code and stdout of cli.main on argv, with "@" and "%" filled in."""
    (tmp_path / "index6.basis").write_text(INDEX6)
    paths = {"@": str(tmp_path / "index6.basis"), "%": str(tmp_path / "missing")}
    code = cli.main([paths.get(x, x) for x in argv.split()])
    return code, capsys.readouterr().out


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


CASES = [
    ("basis -a 3,5,8 --format text", 0,
     "79f1d55f3cdc25e9226e052156abc43bc375d0fc007e0b936b7cbb747d6eae46"),
    ("basis -a 13,17,29 --basis @ --format text", 0,
     "4908b47dafe242323a9df5723cef3d1ca35f000443f33e769cb21570f9e74879"),
    ("basis -a 3,5,8 --format json", 0,
     "b676f248218b020c476bc30cb514627b325aada5329ed8c277a559f0c4559960"),
    ("basis -a 13,17,29 --basis @ --format json", 0,
     "73721162a7967e2894e23ae3e9bc2a51eb826fe59f5ee4237eab89274f4c5f41"),
    ("ideal -a 3,5,8 --format text", 0,
     "bc1dcde9e4e50d71f7cf89963337e8aa01e9cfe4dd038fda41b60c9600b75206"),
    ("ideal -a 13,17,29 --basis @ --format text", 0,
     "f6df4bdd9c85e029770c17702904b558cd2c2201b384649bb5a46ee4b194891b"),
    ("ideal -a 3,5,8 --format json", 0,
     "1647991894ea8b9ff534df17531d7584e14d3c9a1f0f78b1538815a380ee4c18"),
    ("ideal -a 13,17,29 --basis @ --format json", 0,
     "ff7ae6e69c4004ef8b21cbc1fe3ef85604aad7b84a2f02e71ef7194110d834ff"),
    ("ball -a 3,4,11 -k 2 --format text", 0,
     "0900c98aad8b1549431ac59bd9c12817172e02ebd54460d0d5afab58cf957a54"),
    ("ball -a 13,17,29 --basis @ -k 2 --format text", 0,
     "a67b45b606bee5379dd5666b35c022e598861e0fee89c5a71ebda2ec0d2b2c3b"),
    ("ball -a 3,4,11 -k 2 --format json", 0,
     "a6541a7b0929916bd2e7cec631937950b1879b598b2da37458f2c7b62eb107e1"),
    ("ball -a 13,17,29 --basis @ -k 2 --format json", 0,
     "721a9fbe39858e4aeea45c306a1bb1cb51812d16753c120f143cd9b9291a8cfe"),
    ("module -a 3,4,11 -k 3 --format text", 0,
     "f1d1cd615117b230f3eaec9dd1e607bd318862e5423676c407238e323adfdafa"),
    ("module -a 13,17,29 --basis @ -k 3 --format text", 0,
     "2bc7613e771b2af71eb29540d64d88c96e34624f38c3f693b16a375b4a333d48"),
    ("module -a 3,4,11 -k 3 --format json", 0,
     "4adbc1c187caa0fbd296f6c539f7065f1e79d9e64c4d106fe1fc15305fd6f6c2"),
    ("module -a 13,17,29 --basis @ -k 3 --format json", 0,
     "012bf3933ebc073026a191cc0bbeb40c1de828de319de36824d7a5cf30d82efe"),
    ("poset -a 3,5,8 --format text", 0,
     "4fb3b01835adafa13652a2090a8f9acc7b7d009c0b686fc0afe15f4f0cf546c6"),
    ("poset -a 13,17,29 --basis @ --format text", 0,
     "85383d2273f3c9720c2499415a8191303d4c7c72740efc013e5772d821262e44"),
    ("poset -a 3,5,8 --format json", 0,
     "3f3ec0a60faeff2bc948903aab54db698e7c4cce83dde818a683b23068ae653b"),
    ("poset -a 13,17,29 --basis @ --format json", 0,
     "a2fd67c569986e918ebf5fd5f238aaa4216c6c366a9d30667576bf8ed192431c"),
    ("poset -a 3,5,8 -k 2 --format text", 0,
     "922f30d79d65d29020e9a6b7702667036d646bf23770484d26081a12499018ed"),
    ("poset -a 13,17,29 --basis @ -k 2 --format text", 0,
     "5571c46e44f7091bb6fcc0000d7e89d027971b0b442721b55dcd1a67c624cbb3"),
    ("poset -a 3,5,8 -k 2 --format json", 0,
     "18aa224a1517988a450225a7dc1b4a8f9a2d05c27834ed3c8059091a5a56597a"),
    ("poset -a 13,17,29 --basis @ -k 2 --format json", 0,
     "92750e51d54b99b0a3a2135721a41b6061c10530b5c1de3a8e3588019e34d76e"),
    ("frobenius -a 3,4,11 -k 3 --format text", 0,
     "54183f4323f377b737433a1e98229ead0fdc686f93bab057ecb612daa94002b5"),
    ("frobenius -a 13,17,29 --basis @ -k 3 --format text", 0,
     "87fcb8e2232cd8ea18e93e6d4761f9843db167599efe621edf5329561faf24a7"),
    ("frobenius -a 3,4,11 -k 3 --format json", 0,
     "38d3474f3b0383bdfc3eb8661ef88ed13344d1bf2978bd9f799def6c1813b579"),
    ("frobenius -a 13,17,29 --basis @ -k 3 --format json", 0,
     "f6c632d04b331a2053019b4cec5289f2b2199c040851eb86894d0d8eca4978d5"),
    ("sequence -a 3,5,8 --k-max 6 --format text", 0,
     "d9fd68ce81f7502d220ac74470e24062110db057226e5c1e9757a45896369be3"),
    ("sequence -a 13,17,29 --basis @ --k-max 6 --format text", 0,
     "c387ca32eac6dd4d47e7cff033cf6d810b163aa6209b4285346c80404ff30888"),
    ("sequence -a 3,5,8 --k-max 6 --format json", 0,
     "886ad7c082d9e1ce7106ccb8c5e39991dec90cf46f3d98a5646fa08fc8a2d030"),
    ("sequence -a 13,17,29 --basis @ --k-max 6 --format json", 0,
     "c0d79693e78c9b0aba7a699d2dbb7cea35d98600b83b8b9fe092b1d3551b1440"),
    ("poset -a 3,5,8 --format dot", 0,
     "6737a22af197646cb1005742310d9a6f195c128cfc57a46f25ffbd332f9954ba"),
    ("poset -a 13,17,29 --basis @ --format dot", 0,
     "364b6a8066e074cc6a82ad2f54cac8de5dfb5b548e91cd7a356f00aa03e54aa7"),
    ("verify -a 3,5,8 --k-max 4", 0,
     "d12a246a45b69fd57dd12d4e296af60584fb9a9c8a6011974a74d9d844c35f20"),
    ("verify -a 13,17,29 --basis @ --k-max 6", 0,
     "6e8973a3885121ae7a2c724bdff14b71fe3fd00086fcb8728745dc967fead708"),
    ("module -a 1,4,7 -k 2 --format json", 0,
     "4b39c326c25a86d1661827c536d67f287f45ab9c7735fb71f31f6d6fe20485e4"),
    ("poset -a 1,4,7 -k 2 --format json", 0,
     "8b4148710a957b6e4e220741f366dba199a7b8ccdcaa866a26a4563b279d5e92"),
    ("sequence -a 1,4,7 --k-max 3", 0,
     "863f27d0d5d1018b1c44f7b67bc4be076070b7892fb8b1ce7db33b161d1a6222"),
    ("poset -a 3,5,8 -k 2 --format dot", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify -a 3,5,8 --k-max 0", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("poset -a 3,5,8 --basis % --format dot -k 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv, code, digest", CASES, ids=[argv for argv, _, _ in CASES])
def test_stdout_and_exit_code_match_the_recorded_ones(argv, code, digest, tmp_path, capsys):
    got, out = _run(argv, tmp_path, capsys)
    assert (got, _sha(out)) == (code, digest)


def test_an_output_file_gets_the_recorded_bytes_and_stdout_nothing(tmp_path, capsys):
    target = tmp_path / "module.json"
    argv = f"module -a 3,4,11 -k 3 --format json -o {target}"
    assert _run(argv, tmp_path, capsys) == (0, "")
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "4adbc1c187caa0fbd296f6c539f7065f1e79d9e64c4d106fe1fc15305fd6f6c2"


def test_a_failing_verify_writes_its_whole_report_and_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "brute_force_frobenius", lambda basis, k: -99)
    code, out = _run("verify -a 13,17,29 --basis @ --k-max 3", tmp_path, capsys)
    assert code == 3
    assert _sha(out) == "6e3cb05ea58a927a4a13bbd68fea4b66e14c492e994065b3286573c9558ff5df"
    mismatched = [line.endswith(" MISMATCH") for line in out.splitlines()]
    assert mismatched == [True, False, False, False] * 3


def test_an_unreadable_basis_is_reported_before_the_options_of_the_command(tmp_path, capsys):
    # Both errors exit 2; the basis is read first, so its error is the one shown.
    missing = str(tmp_path / "missing")
    assert cli.main(["poset", "-a", "3,5,8", "--basis", missing, "--format", "dot", "-k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read basis file ")
