"""Byte pins on the `construct` output.

Each argv runs through `run_cli`, and the sha256 of its stdout must equal
the digest recorded here.  The argvs cover the fiber and partition
constructions over every field order up to 64, a spread of product codes up
to n = 4096, and general (n1, m1) = (3, 2) fiber codes whose maps use
entries outside the prime subfield, so a change to the field tables or to
the way the matrices are laid out shows up as a changed digest.
"""

import hashlib
import json

import pytest

from availcodes.cli import run_cli

# `functional --t min(q+1, 4)` and `partition --r q-1 --g 2 --t min(q+1, 4)`
# for each prime power q <= 64, then product codes
DIGESTS = [
    ("functional --q 2 --t 3", "d4fb6c1d360501b42b85c00735e4105c6f4d6d6d7b194c25619dd082674f6cf8"),
    ("partition --r 1 --g 2 --t 3", "42da372007da09250ce0d49fdc03e097e7dc0f48ed379b8d97ac9875b95e0e3b"),
    ("functional --q 3 --t 4", "d12509fa32667112d49b5b3ab3e22f60a89caae2b04ca36b6dfc4be21a191187"),
    ("partition --r 2 --g 2 --t 4", "034a7639d924d45af8aa8b5a0778136b058824482a92857d1487c6002cf23988"),
    ("functional --q 4 --t 4", "8e03d7ca02d84f4a158795279ac816a727a30176e69c3a1b95bccd8327de40c3"),
    ("partition --r 3 --g 2 --t 4", "d0161c24c421945134b9931d9e1cc8390afbd3596c785165844390e1af61c6a8"),
    ("functional --q 5 --t 4", "28a6604d9f55fbd3af818c17fc6b8c3e4b648e562bdbaec7184dc279c71946d8"),
    ("partition --r 4 --g 2 --t 4", "abf5cac77980ce4272c37da37191a745d470b2c5e1e160db473dfc2329cc0791"),
    ("functional --q 7 --t 4", "22c7e866fd40d4b642f465e783fff07c3dd5069792cb047aa64327220fa8cee3"),
    ("partition --r 6 --g 2 --t 4", "bf8d384ef423589b2ad95e6f4f53229af4a356f9617cf383d07a44b0d52d2322"),
    ("functional --q 8 --t 4", "f6c90532d8de10643a9c36a9d01edc6c35e92e9182bff979a08173816897277b"),
    ("partition --r 7 --g 2 --t 4", "c27713567aba7bc963e205a3115f4d393f22b4d87a0a422bb26dc0589ef2c993"),
    ("functional --q 9 --t 4", "22e0e448275d909cec8ed217633cbce59ddb7035db0da42826c0070e8739b604"),
    ("partition --r 8 --g 2 --t 4", "22e62981ea37bc1d1fd0ce3e7be64745fc5f998fcc58fca2a54d618571f81d1e"),
    ("functional --q 11 --t 4", "75e2f4bfe7992a6949d6ba1a0012478439bf1f01aef607aa64d73c291d0b4199"),
    ("partition --r 10 --g 2 --t 4", "d5cf1097c18a5eb97bb98f97a101ff6ccd48952497ee1eb68886f528d7b84f84"),
    ("functional --q 13 --t 4", "6f2b2f275c6b79b99d52a5fc4d00b186487850e311214a88747810360274153c"),
    ("partition --r 12 --g 2 --t 4", "cdabd4cb05b191a10c395ca57b41a9637ad6894a52d84ca5777134d4aa6911ac"),
    ("functional --q 16 --t 4", "75e33ea3f5c997ae018558ebfff3bc63de385030ffcf59fc9720e9d8dfb4f15e"),
    ("partition --r 15 --g 2 --t 4", "e2714caf0dd75a17bf854052ca2e5d8a550654385fcc6cc6da7730e971586442"),
    ("functional --q 17 --t 4", "9af5e0ac55b9b5b2d3e316db644310c25f03d4ec8be81bd78d667b7223945fc0"),
    ("partition --r 16 --g 2 --t 4", "3fdf420fd44756baa2f4c1ed267f9e4218b2e94f66d0c93f5756593bfaf85dff"),
    ("functional --q 19 --t 4", "175a9655287e5abe206714a8733481a18f3d5d0320e1251d016fdeb582bce801"),
    ("partition --r 18 --g 2 --t 4", "e7af46472239c69314897fdffe34abb29c2eda625fd13aa9ecfbbf8e7d6517e7"),
    ("functional --q 23 --t 4", "20960e27f55a45cf4db6765b32cf042cb44fcf7cb4707312dc2dc0cea4648f08"),
    ("partition --r 22 --g 2 --t 4", "fd23aca5b042c42fe219ec51c5e81cc10922c323ca12c2e5bc359555b19fdef3"),
    ("functional --q 25 --t 4", "cc4d5549d8a972c29ef79b3ec3dde033fa12d4c99027da69c9996280ed5d3b1a"),
    ("partition --r 24 --g 2 --t 4", "1acc0a7da385285682d53335ad51067fe1105c7b4fbb8f246a4cdba211d227a1"),
    ("functional --q 27 --t 4", "f2cbdc7d154bfd67cf70e68e49889b16e9b7220383bc0d1ad63249bfdfa15261"),
    ("partition --r 26 --g 2 --t 4", "829fffb7cfc61c7a5d7dfb043db6ec6ffd5b5a758b40406053f0b56aed633363"),
    ("functional --q 29 --t 4", "2e10586b9ebcb7cf295857a8af689cadef7975d7c0f5554ee86935553dd97290"),
    ("partition --r 28 --g 2 --t 4", "349283f95bbf83cb2edd847c0164ef1a98a8938bf11dda6361b8bb5f90ee2d76"),
    ("functional --q 31 --t 4", "f367edc05f30b60c7112633dd6910b3c588e2034ce0a82096d016ae49aa2ad4e"),
    ("partition --r 30 --g 2 --t 4", "a3f3dd7f3c5b02d0aabde638573b5a63cc593164bddb6b6c3a454e6864c671ea"),
    ("functional --q 32 --t 4", "5891c1f2d9750d77915873317524a1b92e7b1618825d1041abd7276be14b23cf"),
    ("partition --r 31 --g 2 --t 4", "e2c1b809ff40522aa2f06d4446f7ed928f5f1455e07998c9153133e5028de503"),
    ("functional --q 37 --t 4", "c18a5d86b14378da35cc3a08f828f458c27df2fff30ebec00045c4f4ce1bf98a"),
    ("partition --r 36 --g 2 --t 4", "b43ee9672f376d8cb042696dbb76684e643a744d4067f37cd604033fe7b78052"),
    ("functional --q 41 --t 4", "e41ef886fb7be88ac2b35dac8f0c82b4ab454c69a539f898c75700f76e2fc8a9"),
    ("partition --r 40 --g 2 --t 4", "3fd4d02564857a36b56c14fba35d4230453c68ffb24fd2c63da0e7a2fd3c7dbd"),
    ("functional --q 43 --t 4", "be95d05cbac5986e51d57032d854eecc09a3972ddbfe85456103bb56c3a4af45"),
    ("partition --r 42 --g 2 --t 4", "e68a9879bff10831e477005bc5f39b790da0bacfdfe3cfea94587d314ecd7190"),
    ("functional --q 47 --t 4", "819a8ef342b8486b3e7a6bda6ca15910656379994e728d5563629a54126fcb5e"),
    ("partition --r 46 --g 2 --t 4", "d8d9ba3dc424935e2729ecea98f4ceeab118c45dd1e01f35385793fb1346e271"),
    ("functional --q 49 --t 4", "e9232e618f7037464d741cd409983faaba15049cee2d764eff1fb760baa60642"),
    ("partition --r 48 --g 2 --t 4", "a4c9dc7b9788b6ff9923607878c8210d689044c598b865e230ac2c9490ab770f"),
    ("functional --q 53 --t 4", "468f3f5b6bb6445e28fc370501a7d988ca00f677c480fcea814605ccef0ebbfc"),
    ("partition --r 52 --g 2 --t 4", "2406b3c2b353ffb66d1876bfebed892e556b0e641462060aad7fbc9cd24a20e1"),
    ("functional --q 59 --t 4", "4babf581c7c8a359587f9bfbff58f3180ada0cba68ad3ac312ef8ec2856277d3"),
    ("partition --r 58 --g 2 --t 4", "dd6886e25d73bc9df038070e7c5c0a1b7281e933354b912ea85de95c4d985161"),
    ("functional --q 61 --t 4", "93854b521bc5daa329fa179b6a385731c4596114a81e12cb0cc97441df3709b1"),
    ("partition --r 60 --g 2 --t 4", "181b89967c8a3994a386858582fed3429acacd08c10c57d57cef943e740f4b17"),
    ("functional --q 64 --t 4", "74a8d07487998e95a4a3de5955c4208df800073ea2fdbd87b5490b0b3b3da439"),
    ("partition --r 63 --g 2 --t 4", "43866c3875285fc2c9ab6882bb50421fd20cdceb7d88e42207442c77a6fdfc32"),
    ("product --r 1 --t 2", "7ef164976eebdb77bc023c58b432de3a8203cb6a449e008fd6f0a0bb6f62bf00"),
    ("product --r 1 --t 12", "c363b76e33aa311da2ae49e82cb6188ba04a9114bd1c24a6b3b3fd149d41f27a"),
    ("product --r 2 --t 3", "0558fed71095fc88881b94d856e16fa3e67638586aebdb0a5029e4503f1dc375"),
    ("product --r 3 --t 6", "d3cb1549169a75cc0da6e0cb16f69d37116346ed8dd42d52a34283e297396778"),
    ("product --r 4 --t 5", "6d3d9f1a9f4c6c137c2ef57708d776c6ef694e142add28418170e65ed3f27d03"),
    ("product --r 15 --t 3", "a96d7c776be05e545a257816d9a94f0cbb71d817e4786406653e7e28f1a523ac"),
    ("product --r 63 --t 2", "bff22f1e27fa61fa472299f0a315cfa9855703bea2fb667a56d38302cbb4b01e"),
]

# (argv, the maps of its --matrices file, digest)
MAPPED_DIGESTS = [
    (
        "functional --q 4 --t 3 --n1 3 --m1 2 --matrices",
        [[[0, 1, 2], [2, 2, 0]], [[3, 2, 3], [3, 3, 0]], [[2, 1, 2], [2, 2, 2]]],
        "6cde914c4c429255f94cef667715f49909f060733987c899ef90dd43679e2201",
    ),
    (
        "functional --q 8 --t 4 --n1 3 --m1 2 --matrices",
        [[[2, 2, 4], [2, 0, 1]], [[1, 5, 0], [1, 4, 3]], [[6, 6, 7], [1, 1, 5]], [[2, 1, 7], [3, 4, 7]]],
        "980126b5291285c433b94013c7c8a59e65b83a4d03913f53454e922084c9f628",
    ),
    (
        "functional --q 9 --t 4 --n1 3 --m1 2 --matrices",
        [[[3, 7, 4], [8, 4, 1]], [[1, 1, 4], [4, 1, 0]], [[2, 6, 1], [8, 1, 6]], [[7, 2, 8], [6, 7, 4]]],
        "90d8d2df06ff7926c7d0200df757dced79c9791034ae471fb0b21e0418b4ac1b",
    ),
]


def _digest(capsys, argv: list[str]) -> str:
    assert run_cli(["construct", *argv]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[argv for argv, _ in DIGESTS])
def test_construct_output_digest(capsys, argv, digest):
    assert _digest(capsys, argv.split()) == digest


@pytest.mark.parametrize(
    "argv, maps, digest", MAPPED_DIGESTS, ids=[argv for argv, _, _ in MAPPED_DIGESTS]
)
def test_construct_functional_matrices_digest(tmp_path, capsys, argv, maps, digest):
    path = tmp_path / "maps.json"
    path.write_text(json.dumps(maps))
    assert _digest(capsys, [*argv.split(), str(path)]) == digest
