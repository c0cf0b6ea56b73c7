"""Byte pins of the command line.

Each command's exit code, stdout and stderr are hashed together with
SHA-256, and the digest is pinned.  A change that means to keep the CLI's
output keeps every digest; a failing case is named by its command.
"""

import hashlib

import pytest

from lgdual.cli import main

# the model-file example of README.md, comments included
README_MODEL = """\
# comment
[variety]
degrees = -2            # split bundle over the line, XOR an explicit matrix:
# dv = 1 0; -1 2; 0 1   # rows ';'-separated
labels = f0 fInf X1     # optional
offset = 0 1 0          # optional rational lift of Im K, one per divisor
[potential]             # optional; degrees form defaults to generic sections
term = 1 : 0 1          # coefficient : exponent vector
[kahler]
class = i               # one value per free generator of the class group
"""

MODELS = {
    "readme.lg": README_MODEL,
    # dense dimension-4 models of the kind the model-files benchmark draws
    "dense0.lg": (
        "[variety]\n"
        "dv = 3 0 1 0; 1 0 1 0; 2 1 1 -1; 1 0 0 1; 1 0 -1 1; 3 1 0 0; 1 1 1 0; 3 -1 -1 1\n"
        "[potential]\n"
        "term = 1/2+i : 2 0 0 1\nterm = 3 : 1 1 -1 -1\nterm = 1 : 2 -1 1 0\n"
        "term = -2/7i : 1 0 -1 0\nterm = 5/3-2i : 2 -1 -1 -1\n"
    ),
    "dense1.lg": (
        "[variety]\n"
        "dv = 3 -1 0 -1; 2 -1 1 0; 3 0 -1 1; 3 -1 1 -1; 3 1 0 -1; 3 -1 1 1; 3 -1 -1 0; "
        "2 0 0 1; 2 -1 0 1\n"
        "[potential]\n"
        "term = 1 : 2 0 0 -1\nterm = 1 : 2 0 1 0\nterm = 1 : 2 1 0 1\n"
        "term = 1 : 2 -1 -1 0\nterm = 1 : 1 0 1 1\nterm = 1 : 2 1 0 -1\n"
    ),
    "dense2.lg": (
        "[variety]\n"
        "dv = 3 -1 1 0; 2 1 0 0; 3 1 1 -1; 1 1 1 -1; 3 -1 0 -1; 1 1 1 0; 3 1 1 0; 2 -1 1 0\n"
        "[potential]\n"
        "term = 1 : 1 1 -1 0\nterm = 1 : 2 1 1 0\nterm = 1 : 1 1 -1 -1\n"
        "term = 1 : 2 -1 0 -1\nterm = 1 : 1 0 0 -1\nterm = 1 : 2 1 1 -1\nterm = 1 : 2 -1 0 0\n"
    ),
    # free rank 3: K's lift places its values on +1 and -1 entries
    "rank3.lg": "[variety]\ndv = 2 1; 1 1; -1 -1; 0 1; 1 0\n",
    # free rank 2 with an offset: the real parts of K's lift are solved for
    "offset.lg": (
        "[variety]\ndv = -3 -2; -3 -1; -3 1; -2 -3\noffset = -8/11 -9/11 0 0\n"
        "[kahler]\nclass = 1/2+i\nclass = 1/3-i\n"
    ),
    "bad_term.lg": "[variety]\ndegrees = -2\n[potential]\nterm = 1 : 0 x\n",
    "short_offset.lg": "[variety]\ndegrees = -2\noffset = 0 1\n",
    "wrong_offset.lg": "[variety]\ndegrees = -2\noffset = 0 1 1\n",
    "no_kmap.lg": "[variety]\ndv = 1 0; 0 1\n[potential]\nterm = 1 : 2 0\nterm = 1 : 0 1\n",
}

DIGESTS = {
    "sweep --cy 6 6": "45bf5d7754691229d1a1408fb746ca259c0470acd9831d47610a0c8012d656d6",
    "sweep --rank1 20": "631e425866d1948d24d5d9573de910e55f1f44fa5faa5f4d817266a07551c416",
    "sweep --rank2 8": "940b29b9722859b12d3bfef666323bd805503ccc57c0d8617c75d9d18f7abd1d",
    "selfdual --degrees=-2": "ed690c07c726ed8faae48dfb20d068c2f6b0d7833e3ab21690f5821ae0423436",
    "selfdual --degrees=-1,-1": "5e6cb23a09f1cfce18512cf98d8db65e529c0e1cd9dabe44af10df44b7429850",
    "selfdual --degrees=0,-2": "07a80cbf89b452bd784c5b9b1818453cfef56c92a238015366cf902fce2e95e3",
    "selfdual --degrees=-3": "45a61ad2121a2a3a28e850fa6c9b2deca63ffdd91441854622188497234f329d",
    "selfdual --degrees=2,-4": "435e48b45868b89b55a73a770e035df574675895be50c0a127a869b764ac5bea",
    "selfdual --degrees=-1,-1,-1,1": "c8cf01472bf548a5eacfdf0171191f950ac75b73f70fdd18e13eee9572942ab0",
    "analyze readme.lg": "fc841f0199ba54894900193551cd54c4955f6c37183cc527b4a3dd84e0bd609d",
    "dualize --check-involution readme.lg": "e036f0c5195afe8b79750c3773981cbb9ad9ef64b869cbbcaa2770bce7f48bed",
    "selfdual readme.lg": "6101ed67e9351ce436d0e6ecdeb3f29a1ef81b72febe651c6fd4fee3532d7775",
    "analyze dense0.lg": "a8928446d5a2a5bc8e9c3e92ec413a9492e292681c05c5001ac965ca796ecd54",
    "dualize --check-involution dense0.lg": "ac6817d50e7aedf0e6c03b1064456b09c1db98f5ba65318aa6adf1645ba2aa0b",
    "selfdual dense0.lg": "6101ed67e9351ce436d0e6ecdeb3f29a1ef81b72febe651c6fd4fee3532d7775",
    "analyze dense1.lg": "22b2047a83a0df2c3869b77295f2ec69e1600040ce0b239e5d550f451b1ddb37",
    "dualize --check-involution dense1.lg": "2f5768b061adf4e577769df0852009f21ea6a09562b84669380ac5577bb0bf1a",
    "selfdual dense1.lg": "6101ed67e9351ce436d0e6ecdeb3f29a1ef81b72febe651c6fd4fee3532d7775",
    "analyze dense2.lg": "0c51f419ec5b5b64e57d64c8ab5b867283324584a58e3066ddf3683cfd754fe2",
    "dualize --check-involution dense2.lg": "9365747886b8d14f748110d15bff2dc5d56f2a87bc406e812f69770ce1c8e021",
    "selfdual dense2.lg": "6101ed67e9351ce436d0e6ecdeb3f29a1ef81b72febe651c6fd4fee3532d7775",
    "analyze rank3.lg": "ba93b630fdccf52339ee71630f93ca6b1d18adb776cf77c06532b713234dfc62",
    "dualize --check-involution rank3.lg": "4b84b93f382ccd31fd90673a9602c5009fbfab043759b6322fc9eabb2a899698",
    "selfdual rank3.lg": "6101ed67e9351ce436d0e6ecdeb3f29a1ef81b72febe651c6fd4fee3532d7775",
    "analyze offset.lg": "005107b795237aee729da838aef57b112476b25baa6b7d4a8f2a38cbb161c468",
    "dualize --check-involution offset.lg": "27b85d8ad299c0585b592cde4713c78a2d64984451ce370c351dca9f0906f043",
    "selfdual offset.lg": "6101ed67e9351ce436d0e6ecdeb3f29a1ef81b72febe651c6fd4fee3532d7775",
    "analyze bad_term.lg": "3cb378abaac6b84a23bb15b3eaca88b99351494e2dc23e7e7f6976ff2659062f",
    "analyze short_offset.lg": "171e45944de09d760c470c83a2764c08995ca11be53f9846eab72ea105a1bc1e",
    "analyze wrong_offset.lg": "929cf4080193d26d3d45e70cb31b85b406adcb2c757db97b602c33963e5fbb76",
    "dualize no_kmap.lg": "506cacbb3e7009547a25b22ec241bf6eea7eaff02d0d98c55b1a108917053b59",
}


def _digest(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return hashlib.sha256(("%d\n%s\0%s" % (code, out, err)).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_cli_bytes_are_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in MODELS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert _digest(command.split(), capsys) == DIGESTS[command], command
