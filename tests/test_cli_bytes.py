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
    # one dense dimension-4 model of each (rays, terms) shape the model-files
    # benchmark draws, with coefficients in every literal form the parser takes
    "shape8x5.lg": (
        "[variety]\n"
        "dv = 3 0 1 0; 1 0 1 0; 2 1 1 -1; 1 0 0 1; "
        "1 0 -1 1; 3 1 0 0; 1 1 1 0; 3 -1 -1 1\n"
        "[potential]\n"
        "term = 1/2+3i : 2 0 0 1\n"
        "term = -i : 1 1 -1 -1\n"
        "term = 0.25-1e-2i : 2 -1 1 0\n"
        "term = 7 : 1 0 -1 0\n"
        "term = 2.5E+1-i : 2 -1 -1 -1\n"
    ),
    "shape8x6.lg": (
        "[variety]\n"
        "dv = 3 -1 0 -1; 2 -1 1 0; 3 0 -1 1; 3 -1 1 -1; "
        "3 1 0 -1; 3 -1 1 1; 3 -1 -1 0; 2 0 0 1\n"
        "[potential]\n"
        "term = -i : 2 0 0 -1\n"
        "term = 0.25-1e-2i : 2 0 1 0\n"
        "term = 7 : 2 1 0 1\n"
        "term = 2.5E+1-i : 2 -1 -1 0\n"
        "term = -3/4i : 1 0 1 1\n"
        "term = 5/3-2/9i : 2 1 0 -1\n"
    ),
    "shape8x7.lg": (
        "[variety]\n"
        "dv = 2 -1 0 0; 3 -1 1 0; 2 1 0 0; 3 1 1 -1; "
        "1 1 1 -1; 3 -1 0 -1; 1 1 1 0; 3 1 1 0\n"
        "[potential]\n"
        "term = 0.25-1e-2i : 2 -1 0 1\n"
        "term = 7 : 1 1 -1 0\n"
        "term = 2.5E+1-i : 2 1 1 0\n"
        "term = -3/4i : 1 1 -1 -1\n"
        "term = 5/3-2/9i : 2 -1 0 -1\n"
        "term = 1/2+3i : 1 0 0 -1\n"
        "term = -i : 2 1 1 -1\n"
    ),
    "shape9x5.lg": (
        "[variety]\n"
        "dv = 1 1 -1 1; 2 -1 1 0; 1 1 1 -1; 2 0 -1 -1; "
        "2 1 0 -1; 2 0 1 1; 1 0 1 0; 2 -1 0 -1; 3 1 1 1\n"
        "[potential]\n"
        "term = 7 : 2 -1 1 0\n"
        "term = 2.5E+1-i : 1 0 1 1\n"
        "term = -3/4i : 1 0 0 -1\n"
        "term = 5/3-2/9i : 2 -1 1 1\n"
        "term = 1/2+3i : 1 0 0 1\n"
    ),
    "shape9x6.lg": (
        "[variety]\n"
        "dv = 2 0 -1 1; 2 1 0 -1; 1 0 1 0; 1 0 -1 -1; "
        "3 1 0 -1; 3 0 1 1; 2 0 1 1; 2 -1 -1 1; 1 0 0 0\n"
        "[potential]\n"
        "term = 2.5E+1-i : 2 0 -1 1\n"
        "term = -3/4i : 2 1 0 1\n"
        "term = 5/3-2/9i : 2 -1 1 -1\n"
        "term = 1/2+3i : 1 1 -1 0\n"
        "term = -i : 1 1 -1 1\n"
        "term = 0.25-1e-2i : 2 -1 0 1\n"
    ),
    "shape9x7.lg": (
        "[variety]\n"
        "dv = 2 1 0 1; 1 -1 0 1; 2 0 1 0; 2 0 -1 -1; "
        "1 0 0 0; 3 1 0 0; 3 1 -1 0; 3 -1 -1 0; 3 0 1 1\n"
        "[potential]\n"
        "term = -3/4i : 2 1 1 1\n"
        "term = 5/3-2/9i : 2 -1 -1 0\n"
        "term = 1/2+3i : 2 0 1 1\n"
        "term = -i : 1 1 1 0\n"
        "term = 0.25-1e-2i : 2 0 -1 1\n"
        "term = 7 : 2 -1 0 0\n"
        "term = 2.5E+1-i : 1 1 0 1\n"
    ),
}

# malformed coefficient literals, the last with a NUL character in it
BAD_LITERALS = ("1/0", "i+i", "2/3/4i", "1e", "--1", "1+2+3i", "2\x003i")
for _k, _literal in enumerate(BAD_LITERALS):
    MODELS["literal%d.lg" % _k] = "[variety]\ndegrees = -2\n[potential]\nterm = %s : 0 1\n" % _literal

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
    "analyze shape8x5.lg": "a8928446d5a2a5bc8e9c3e92ec413a9492e292681c05c5001ac965ca796ecd54",
    "dualize --check-involution shape8x5.lg": "1e5b10531f9a147aa4505ff74b07a66d19837dc8465ee777bb47d0db2dfb4adc",
    "analyze shape8x6.lg": "a59449860f77d1194a9359bebf9d5436ea4134015d05054e6a918b552ef617e8",
    "dualize --check-involution shape8x6.lg": "37e5ac84ddf4a74394fc3b8ce05f0b13ff80fcf60ebf360c5812d4e7d4a1ea9e",
    "analyze shape8x7.lg": "a9de9fdc873d6a5c3b552909df261c26dc7dd3bcd24c05cf173e85518640d577",
    "dualize --check-involution shape8x7.lg": "534c0fceddcc569dc66ba790d88c21ed0ddf0934b63522dd02b6fe6a11c56493",
    "analyze shape9x5.lg": "762f7a391ab73c61e40c2944c32698f6498b63da14a7a49d87b2f778f6a712d9",
    "dualize --check-involution shape9x5.lg": "519a055cc1e523980ea4ba208ef97a417c3a8cd9265c0e28cf21bda3ddbe549b",
    "analyze shape9x6.lg": "763b9147deac891d80e28631d60dce7ff63f4ab23cf21bb060f26baa754beee8",
    "dualize --check-involution shape9x6.lg": "480fd1766d347cbe108bee7816d8282bdece47ffa5fac3ed1d667292639605f5",
    "analyze shape9x7.lg": "d3e715f2fb86db88e7750772b571f93f81a03856b03a35caaa99379502b320d3",
    "dualize --check-involution shape9x7.lg": "46186f2145c1ad5dcd314815634875b36b191f73c591943161123f77e97d3bf4",
    "analyze literal0.lg": "9e1d9786fee8b38a4899bd1ff39634cc4123ac0392793933491122aa3018df88",
    "analyze literal1.lg": "cf6bfbf910fefee3a954589c4b131644cfd48c88620c51c51840d69aee045916",
    "analyze literal2.lg": "2d116d2ae5e80f22a16ab94cd43b3a15966d4ad676f471ba23a40de7bce556a4",
    "analyze literal3.lg": "5229ad795bb19f88128e500f1c8aebacf12022224d8114edce0fe1cc75848008",
    "analyze literal4.lg": "9e47ce892e6e36bb5b0929fbe7b0710029e95b9e4591a46e3033081c7f189add",
    "analyze literal5.lg": "c2df63380cee7ddf8f8f4adce1326d58f49e6f916831a694819a6641de353a7f",
    # the NUL is quoted as written, not as the sign "+"
    "analyze literal6.lg": "27bd265ffef1b5735a519d914591d0f2a37477a264918cc139068361be94269a",
    # no such file: the OSError exit
    "analyze missing.lg": "cc9d6605504acfdd50df8f44e88ea1795f19be1f2b2a3d44abd307966b7ca354",
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
