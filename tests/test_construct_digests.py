"""Byte pins on the `construct` output.

Each argv runs through `run_cli` with `-o`.  The sha256 of the matrix
text it writes must equal the first digest recorded here, and the sha256
of the JSON sidecar beside it (k, the rate k/n in lowest terms, whether it
exceeds r/(r+t), the construction's parameters) the second.  The
argvs cover the fiber and partition constructions over every field order
up to 64, a spread of product codes up to n = 4096, and general
(n1, m1) = (3, 2) fiber codes whose maps use entries outside the prime
subfield, so a change to the field tables or to the way the matrices are
laid out shows up as a changed digest.
"""

import hashlib
import json

import pytest

from availcodes.cli import run_cli

# `functional --t min(q+1, 4)` and `partition --r q-1 --g 2 --t min(q+1, 4)`
# for each prime power q <= 64, then product codes: (argv, digest, sidecar digest)
DIGESTS = [
    (
        "functional --q 2 --t 3",
        "d4fb6c1d360501b42b85c00735e4105c6f4d6d6d7b194c25619dd082674f6cf8",
        "99833bfbfa3289c042f6e9fb2719ddfb4708119f3a6be282bceec8699493e7c5",
    ),
    (
        "partition --r 1 --g 2 --t 3",
        "42da372007da09250ce0d49fdc03e097e7dc0f48ed379b8d97ac9875b95e0e3b",
        "2084ad119415b8b4c054c195bd8b87325cce1c05da14c2c9fb6b089cf58587e7",
    ),
    (
        "functional --q 3 --t 4",
        "d12509fa32667112d49b5b3ab3e22f60a89caae2b04ca36b6dfc4be21a191187",
        "49cf4c8d93911949e023943c8a87d8a544a5d751e6de043e8c3dcf5e4683138d",
    ),
    (
        "partition --r 2 --g 2 --t 4",
        "034a7639d924d45af8aa8b5a0778136b058824482a92857d1487c6002cf23988",
        "b2d215c82e2464dac306889ee4bdc44c980935b4f4ed2fae9be0c72f93b4fe51",
    ),
    (
        "functional --q 4 --t 4",
        "8e03d7ca02d84f4a158795279ac816a727a30176e69c3a1b95bccd8327de40c3",
        "fad99d7c434ad8c5b4268bb97f4cc17f600d9f1be844153e045cc0a8adcd4ae8",
    ),
    (
        "partition --r 3 --g 2 --t 4",
        "d0161c24c421945134b9931d9e1cc8390afbd3596c785165844390e1af61c6a8",
        "3d71560cacf3068ef366d7fe93bbdbf41125d0a96d7a0e67873d822609094480",
    ),
    (
        "functional --q 5 --t 4",
        "28a6604d9f55fbd3af818c17fc6b8c3e4b648e562bdbaec7184dc279c71946d8",
        "27c36164318941b2b21cb018ad25f82a1e0415b9ff5aac5172f5598da20d766d",
    ),
    (
        "partition --r 4 --g 2 --t 4",
        "abf5cac77980ce4272c37da37191a745d470b2c5e1e160db473dfc2329cc0791",
        "109a8b9e763a6f47c3b76712df67fbc886f65b42c9f8ef6d7a3cff44d16594c5",
    ),
    (
        "functional --q 7 --t 4",
        "22c7e866fd40d4b642f465e783fff07c3dd5069792cb047aa64327220fa8cee3",
        "54c451037fcbd9750a265d1407bab12d3825bf69f60e34520b30640d71a667cd",
    ),
    (
        "partition --r 6 --g 2 --t 4",
        "bf8d384ef423589b2ad95e6f4f53229af4a356f9617cf383d07a44b0d52d2322",
        "d1c4ba2295e63922dc6d021c1053ae34d6b4d83acdeae0ebe9a3d1a3316049fa",
    ),
    (
        "functional --q 8 --t 4",
        "f6c90532d8de10643a9c36a9d01edc6c35e92e9182bff979a08173816897277b",
        "b01b3af6a4fd70bdaf942f956347ba895ef1fbbd7f248d86a764d40cc5ed0d85",
    ),
    (
        "partition --r 7 --g 2 --t 4",
        "c27713567aba7bc963e205a3115f4d393f22b4d87a0a422bb26dc0589ef2c993",
        "71faddb9e0a621270046378b034c5a38c2c9d8574e420fd08ab33987f3962093",
    ),
    (
        "functional --q 9 --t 4",
        "22e0e448275d909cec8ed217633cbce59ddb7035db0da42826c0070e8739b604",
        "a9142afe31fe5a5477b9721d5551e05a62555d11700804d63446deda589b4901",
    ),
    (
        "partition --r 8 --g 2 --t 4",
        "22e62981ea37bc1d1fd0ce3e7be64745fc5f998fcc58fca2a54d618571f81d1e",
        "8315c9a02a3b1f7ae4ff430621dfc9540d24a6186bbefd2e4680842fb335d56a",
    ),
    (
        "functional --q 11 --t 4",
        "75e2f4bfe7992a6949d6ba1a0012478439bf1f01aef607aa64d73c291d0b4199",
        "70df86545ae95fdce7f6c95b5aaa79046af265e8b8fffaccab2a9ce9b2861262",
    ),
    (
        "partition --r 10 --g 2 --t 4",
        "d5cf1097c18a5eb97bb98f97a101ff6ccd48952497ee1eb68886f528d7b84f84",
        "702eb903ffdf2cf1bad0b2a1c1172692827fda20cc833e25ccd22890415ba1df",
    ),
    (
        "functional --q 13 --t 4",
        "6f2b2f275c6b79b99d52a5fc4d00b186487850e311214a88747810360274153c",
        "7a7931c8a813588cd5f29d860939b30173c0a76044321193b4850ad42f7628e7",
    ),
    (
        "partition --r 12 --g 2 --t 4",
        "cdabd4cb05b191a10c395ca57b41a9637ad6894a52d84ca5777134d4aa6911ac",
        "30ec4948fb5f1a9ee91f74371b502aa9bc47f7a7a38e0e7344665c5b82bda0b9",
    ),
    (
        "functional --q 16 --t 4",
        "75e33ea3f5c997ae018558ebfff3bc63de385030ffcf59fc9720e9d8dfb4f15e",
        "ded971accec90e3e28148a6a8ebc01631c29094ff0d1fc85b633e64b4e2175d7",
    ),
    (
        "partition --r 15 --g 2 --t 4",
        "e2714caf0dd75a17bf854052ca2e5d8a550654385fcc6cc6da7730e971586442",
        "6283e4dfb7a32af5208dbd3df6ba54d5af1c336829d7b6af9ed8223376d9252a",
    ),
    (
        "functional --q 17 --t 4",
        "9af5e0ac55b9b5b2d3e316db644310c25f03d4ec8be81bd78d667b7223945fc0",
        "98f3b9c6a647c80f346853e6be9d7de6716916b92e81f59f0627a88736f4961d",
    ),
    (
        "partition --r 16 --g 2 --t 4",
        "3fdf420fd44756baa2f4c1ed267f9e4218b2e94f66d0c93f5756593bfaf85dff",
        "c03731feaf9f52de049e6b193f632e7338351f738088b6fdbffb4d423ebf9d90",
    ),
    (
        "functional --q 19 --t 4",
        "175a9655287e5abe206714a8733481a18f3d5d0320e1251d016fdeb582bce801",
        "33f61249e9ee453c478590c4e8015f96aa5e0e1dc4199765002756aee72dc331",
    ),
    (
        "partition --r 18 --g 2 --t 4",
        "e7af46472239c69314897fdffe34abb29c2eda625fd13aa9ecfbbf8e7d6517e7",
        "1588c7fbad57fd2106870e8040b4d6ddd2de3f881b58e2a82dc95e24787b2565",
    ),
    (
        "functional --q 23 --t 4",
        "20960e27f55a45cf4db6765b32cf042cb44fcf7cb4707312dc2dc0cea4648f08",
        "0d5b0583b14523b63ef5ea51da25640d26292c01567ac19c717f12331019d88a",
    ),
    (
        "partition --r 22 --g 2 --t 4",
        "fd23aca5b042c42fe219ec51c5e81cc10922c323ca12c2e5bc359555b19fdef3",
        "67d43b4e76c8705e1e10ec88a6e05dc55b3b944b467c4c4afdcd39b425e3854f",
    ),
    (
        "functional --q 25 --t 4",
        "cc4d5549d8a972c29ef79b3ec3dde033fa12d4c99027da69c9996280ed5d3b1a",
        "f9c05932ca69a964a0757ae9db56c5909508d8688ee3bf110b2033d4acd6d713",
    ),
    (
        "partition --r 24 --g 2 --t 4",
        "1acc0a7da385285682d53335ad51067fe1105c7b4fbb8f246a4cdba211d227a1",
        "2ce251adeacd73f96a39df762b0d10ee6a0f1c0bf0dff6ffbdaf8c9863a915e1",
    ),
    (
        "functional --q 27 --t 4",
        "f2cbdc7d154bfd67cf70e68e49889b16e9b7220383bc0d1ad63249bfdfa15261",
        "0676d216bb1261145e2f8258ee4a45e70ee5707efb7aaa5ed2425e2d9b5835a1",
    ),
    (
        "partition --r 26 --g 2 --t 4",
        "829fffb7cfc61c7a5d7dfb043db6ec6ffd5b5a758b40406053f0b56aed633363",
        "0b0fb36c767c3da41fedb70725f5cd94b10f5f5fe2eb6d69d6f8d4c3b0d3f542",
    ),
    (
        "functional --q 29 --t 4",
        "2e10586b9ebcb7cf295857a8af689cadef7975d7c0f5554ee86935553dd97290",
        "be0669e35718f5d08465617f30efd50200445dd87ec941f299fbf593682446f2",
    ),
    (
        "partition --r 28 --g 2 --t 4",
        "349283f95bbf83cb2edd847c0164ef1a98a8938bf11dda6361b8bb5f90ee2d76",
        "745c7db0cf9eb409e5caa475d4da3def6bbc103446f2c2b515bce63372e2238e",
    ),
    (
        "functional --q 31 --t 4",
        "f367edc05f30b60c7112633dd6910b3c588e2034ce0a82096d016ae49aa2ad4e",
        "71bcf7fb677159119bde6ab7e357bdc7e750690dc77a3c5cc637f3f98b28aad9",
    ),
    (
        "partition --r 30 --g 2 --t 4",
        "a3f3dd7f3c5b02d0aabde638573b5a63cc593164bddb6b6c3a454e6864c671ea",
        "63e1aa2f582c508fac13dc19894bfcc798f49cc5a2dab9a053120c6e84544ea3",
    ),
    (
        "functional --q 32 --t 4",
        "5891c1f2d9750d77915873317524a1b92e7b1618825d1041abd7276be14b23cf",
        "78e6bcd0505f41ab59893d1e43d6772c25cac7b2bd22b3d0f608ce47f8af865c",
    ),
    (
        "partition --r 31 --g 2 --t 4",
        "e2c1b809ff40522aa2f06d4446f7ed928f5f1455e07998c9153133e5028de503",
        "3efd7a7cdbdbdfe671f9c2f039ce452cec19aa2512643fd1a3c9cb1d4e55a64d",
    ),
    (
        "functional --q 37 --t 4",
        "c18a5d86b14378da35cc3a08f828f458c27df2fff30ebec00045c4f4ce1bf98a",
        "6eaecb02b3de2fa1eeb8b8ac48f3984766f766ef83a9b0086844bd3c123616d5",
    ),
    (
        "partition --r 36 --g 2 --t 4",
        "b43ee9672f376d8cb042696dbb76684e643a744d4067f37cd604033fe7b78052",
        "10d3c4020fb28cf586efc442a464c02fbcc9132a68a3f3491be92f86abc9a2f8",
    ),
    (
        "functional --q 41 --t 4",
        "e41ef886fb7be88ac2b35dac8f0c82b4ab454c69a539f898c75700f76e2fc8a9",
        "8eeff0856d71391b39946d10b69c1d985293f9484fd6ce61f66b6e8ea5442594",
    ),
    (
        "partition --r 40 --g 2 --t 4",
        "3fd4d02564857a36b56c14fba35d4230453c68ffb24fd2c63da0e7a2fd3c7dbd",
        "ca1b72f3beec837ea3a58e1c9cc7e3d5e2b0b8fbd347194e18baf5e4b8ab0c52",
    ),
    (
        "functional --q 43 --t 4",
        "be95d05cbac5986e51d57032d854eecc09a3972ddbfe85456103bb56c3a4af45",
        "cb59a9ecc614a76996cadfe64083b66d17fcf439f1ef0ef26448f2dcf5d49f42",
    ),
    (
        "partition --r 42 --g 2 --t 4",
        "e68a9879bff10831e477005bc5f39b790da0bacfdfe3cfea94587d314ecd7190",
        "23b1621389c7f26dcef61c49d52a43fe9aac0d004100259876a9bf0937d2c8fc",
    ),
    (
        "functional --q 47 --t 4",
        "819a8ef342b8486b3e7a6bda6ca15910656379994e728d5563629a54126fcb5e",
        "474ea5455b7d94518a0a0a10727527073470aa6cadf1d3778339fe0a7f8da817",
    ),
    (
        "partition --r 46 --g 2 --t 4",
        "d8d9ba3dc424935e2729ecea98f4ceeab118c45dd1e01f35385793fb1346e271",
        "64a1c0be459be9b873724e4171838d668b46f404e7af4cb2cde9b36d046b0d28",
    ),
    (
        "functional --q 49 --t 4",
        "e9232e618f7037464d741cd409983faaba15049cee2d764eff1fb760baa60642",
        "35c8edc7dd980e8290801247b31d8e3fa7007e2b58c6c4f9fd11c5d152684d95",
    ),
    (
        "partition --r 48 --g 2 --t 4",
        "a4c9dc7b9788b6ff9923607878c8210d689044c598b865e230ac2c9490ab770f",
        "893bdc8e7b3d07c88cec58fa89e89dd3b37f09e2686ba3ed421814f1745071b7",
    ),
    (
        "functional --q 53 --t 4",
        "468f3f5b6bb6445e28fc370501a7d988ca00f677c480fcea814605ccef0ebbfc",
        "34fdea60413d494fb58977a88107b068992d14378224247d181a3fae65b28b78",
    ),
    (
        "partition --r 52 --g 2 --t 4",
        "2406b3c2b353ffb66d1876bfebed892e556b0e641462060aad7fbc9cd24a20e1",
        "544696d45c5044b06ffdc367be893d8534957e7607831af403b6ed6ee8920880",
    ),
    (
        "functional --q 59 --t 4",
        "4babf581c7c8a359587f9bfbff58f3180ada0cba68ad3ac312ef8ec2856277d3",
        "a7f5ffb191f84f39c55993bfd76a37358d67574b328c8ede5d23e4c310a6bd2d",
    ),
    (
        "partition --r 58 --g 2 --t 4",
        "dd6886e25d73bc9df038070e7c5c0a1b7281e933354b912ea85de95c4d985161",
        "f501e1e86a2e745fc1c50c756239bdbf4a61ba05ae2b7b41d4afb1f3fd92288b",
    ),
    (
        "functional --q 61 --t 4",
        "93854b521bc5daa329fa179b6a385731c4596114a81e12cb0cc97441df3709b1",
        "16a9aee9375f26cc8564876eb213512e8f2de46b251d325b42a47e52728d2afb",
    ),
    (
        "partition --r 60 --g 2 --t 4",
        "181b89967c8a3994a386858582fed3429acacd08c10c57d57cef943e740f4b17",
        "18f4b239050e2d1721a2bd8609aced34da41ef5e955b6d7c95c74d9249f558d3",
    ),
    (
        "functional --q 64 --t 4",
        "74a8d07487998e95a4a3de5955c4208df800073ea2fdbd87b5490b0b3b3da439",
        "2370ad8e4c632d0a7d9775ae320063e74d4b0ea953b010604ae970df42235394",
    ),
    (
        "partition --r 63 --g 2 --t 4",
        "43866c3875285fc2c9ab6882bb50421fd20cdceb7d88e42207442c77a6fdfc32",
        "6bf05ad73e5d985141deaef5f7378c31dd124c170a67ff60d54056d845cd1ca0",
    ),
    (
        "product --r 1 --t 2",
        "7ef164976eebdb77bc023c58b432de3a8203cb6a449e008fd6f0a0bb6f62bf00",
        "b85d904a01a3b72d04ff6e490157b2e9b8fd8ab919c45d3525f679dc47b3f15e",
    ),
    (
        "product --r 1 --t 12",
        "c363b76e33aa311da2ae49e82cb6188ba04a9114bd1c24a6b3b3fd149d41f27a",
        "53960d12233bf6e6fd103ae235f07e02c72d2ea48e07c168fd9b5fbf87c6101e",
    ),
    (
        "product --r 2 --t 3",
        "0558fed71095fc88881b94d856e16fa3e67638586aebdb0a5029e4503f1dc375",
        "188896cb980752db62b91b627ad83d5894e34a1caa638ee01eeaae56d25fffb0",
    ),
    (
        "product --r 3 --t 6",
        "d3cb1549169a75cc0da6e0cb16f69d37116346ed8dd42d52a34283e297396778",
        "750412899f705ea8c2170acd17a518498e0778dd1fb874249f17777ebfc95a98",
    ),
    (
        "product --r 4 --t 5",
        "6d3d9f1a9f4c6c137c2ef57708d776c6ef694e142add28418170e65ed3f27d03",
        "3008d35bd5ba070110ea3682753293d9825f7850e202dd8cbe0f9f31821f2e41",
    ),
    (
        "product --r 15 --t 3",
        "a96d7c776be05e545a257816d9a94f0cbb71d817e4786406653e7e28f1a523ac",
        "0099856b298abf0232a6fbd78bb882cec9160619b1efff66421f24c690af31c0",
    ),
    (
        "product --r 63 --t 2",
        "bff22f1e27fa61fa472299f0a315cfa9855703bea2fb667a56d38302cbb4b01e",
        "c270a086c2fcb75035f5d9c0a9a160867bc7352102d4c80f271db889b73f0869",
    ),
]

# (argv, the maps of its --matrices file, digest, sidecar digest)
MAPPED_DIGESTS = [
    (
        "functional --q 4 --t 3 --n1 3 --m1 2 --matrices",
        [[[0, 1, 2], [2, 2, 0]], [[3, 2, 3], [3, 3, 0]], [[2, 1, 2], [2, 2, 2]]],
        "6cde914c4c429255f94cef667715f49909f060733987c899ef90dd43679e2201",
        "b3bb90753628624fc601cf6efabeab5ab0a382ec201425db47198fa062ef2f58",
    ),
    (
        "functional --q 8 --t 4 --n1 3 --m1 2 --matrices",
        [[[2, 2, 4], [2, 0, 1]], [[1, 5, 0], [1, 4, 3]], [[6, 6, 7], [1, 1, 5]], [[2, 1, 7], [3, 4, 7]]],
        "980126b5291285c433b94013c7c8a59e65b83a4d03913f53454e922084c9f628",
        "a26305c1c35adb2222e7b1b2537c3dd9c26ab575f53aaef5dd9a5ca11e91f21d",
    ),
    (
        "functional --q 9 --t 4 --n1 3 --m1 2 --matrices",
        [[[3, 7, 4], [8, 4, 1]], [[1, 1, 4], [4, 1, 0]], [[2, 6, 1], [8, 1, 6]], [[7, 2, 8], [6, 7, 4]]],
        "90d8d2df06ff7926c7d0200df757dced79c9791034ae471fb0b21e0418b4ac1b",
        "33a9c8e654d4b8bf9a30fb338b8bb2161f2bb457d7d9e67408574d85f14f08b8",
    ),
]


def _digests(tmp_path, argv: list[str]) -> tuple[str, str]:
    """The sha256 of the matrix text and of the JSON sidecar that `-o` writes."""
    assert run_cli(["construct", *argv, "-o", str(tmp_path / "code.txt")]) == 0
    return tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("code.txt", "code.json")
    )


@pytest.mark.parametrize("argv, digest, sidecar", DIGESTS, ids=[argv for argv, _, _ in DIGESTS])
def test_construct_output_digest(tmp_path, argv, digest, sidecar):
    assert _digests(tmp_path, argv.split()) == (digest, sidecar)


@pytest.mark.parametrize(
    "argv, maps, digest, sidecar", MAPPED_DIGESTS, ids=[argv for argv, *_ in MAPPED_DIGESTS]
)
def test_construct_functional_matrices_digest(tmp_path, argv, maps, digest, sidecar):
    path = tmp_path / "maps.json"
    path.write_text(json.dumps(maps))
    assert _digests(tmp_path, [*argv.split(), str(path)]) == (digest, sidecar)
