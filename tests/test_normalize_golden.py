"""Golden normalize outputs: fusion refactors must leave them byte-identical.

The expected digests were produced by the pair-at-a-time normalizer, before
fusion was rewritten to fold each monochrome region in one step.  Each
diagram of the d1-main corpus at seeds 7 (the benchmark corpus) and 3 is
normalized through ``wplzx.cli.main normalize``; the sha256 of every output
file must match.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from wplzx.cli import main

OUTPUTS = ("normalized.diagram.json", "labels.json", "trace.jsonl")
COUNT = 20

# seed -> instance -> sha256 of each file in OUTPUTS, in that order.
EXPECTED = {
    7: {
        "000": (
            "68e9ca788a01b14c2efc6c550c4f5813827c79b544e98399fdc4efa6b162fd6d",
            "5ace98fc4e30380c76cb9f6b861ab1036d8b71c0ba86e0e6ab7ca704affd5a91",
            "6e076cf0ea28f1f1105f2e3e1df0f04c252d443b2deb849ca66c6ddc83e4f797",
        ),
        "001": (
            "a6d275ae8ba59e02faa7f3f046702de12af369f2cd30a20785748112fc83a66c",
            "7e967f9dda551b9e5ea4e7f79926ae583a28170243efafdb08658968f4140b05",
            "db3998e50296a987cd3c77e24413b9e5356b94b8834dea2a84880056feb5f2bc",
        ),
        "002": (
            "a1fcfcef44cc98b02fbe66d03e21551e9ebb098e6f24737b3f0865b7beeff664",
            "c413ab20c820c718e856d591dbc6ef3038d47d48d27c76cd78f44b037a979082",
            "04ceff5360bfca63340a384a128f7e73bedc68b64597fe9801033447ae61b191",
        ),
        "003": (
            "9303c7b1ba1ba128afdb1b1fc4b85feb8147f1874d86c83c3632f920f2630844",
            "f1a3027156196f1db3c3e2535e31c6200ce489b52fb18ad6ef0b513d93330692",
            "710365e0c68855daa2716e63263c8b0e50f408834dce39867424378d15659b37",
        ),
        "004": (
            "9ed281f9588d3708e5afab0be39924c986020e5d50b5bb0beb0c84b88ce7ef48",
            "cee68339247ef8e47739aff4831e7c7830b6154dcab12fa9fcb54e383ce2f452",
            "c14d92a2300a0653b347d77e155da3928d7af62b7ddfb40d0fa3ed7a0f6d8f55",
        ),
        "005": (
            "73b044efbc06410b2cd8e5a061b216e2a23107e6170abd2d23251ee902a2c440",
            "7624c6bbf604b29ab854d50ce060e69bf0339ea66d85642d37aee865e08966cb",
            "c42e8ab2ee044dc67f9f1980c7d2bc26bd84ec92fc939c6069df66fc79672491",
        ),
        "006": (
            "48bcda2a145cab23e34ee368ec6cab4ad4a7448e80ca794fd4567875064ea5bc",
            "d2ddcf67c4bd82a84ac3961ff1c91f023a5cb8a09ce9c1ef51110948b27f008e",
            "dfe125a2e7f32ecdc07f1fefacaf2472eb3a2799dce85213f0a3213deac7ceda",
        ),
        "007": (
            "78becd2269522e5648b9c39093cfd97b0560d9389f20bff5180e3227dd4fd737",
            "ebd10e72851e8687308b8787b406c0e00fbc107ce2c76c78139ed711f279ae20",
            "b3525c7a0ca8da3806ff89b6ab0652caacc8910f6b61af003e9bb4377450ffee",
        ),
        "008": (
            "c0720545a51e730d8172e690bf7d19f631be0a882e5055ef8a3d5c654144efa7",
            "bb39b879bfcb1a1f804d507fcc830178695c2281a57ea07ddfc20aae2c9369a4",
            "0a3dbda882080db20fe33f169347617caa11b00804074d27c75b4f11ffd9e19f",
        ),
        "009": (
            "ba03dc1d4faecdd544175d0e3edaf2eaa847649617e400d78a082e898c8bc4af",
            "ba5a5ee43a3def528c3240289d66543a8f2e1d9fbce9a7d5e6e18ca9bf70f707",
            "4032f1e327932d65991dcd9958d4530b7052f579a865b5b2f1053163be6c168a",
        ),
        "010": (
            "5bcaaa4c1261d56800bddf140f1263f7bbcd0533c543121a00bf4c86fdcc7ac4",
            "b175fab4814ce7b919a2220ff428d1b52c5cfbd36b091a394d1b2c616588bc78",
            "e0cf26e25770a2b2f39540ef84f12479764f23b3b51f696f8ba296db5fa18c67",
        ),
        "011": (
            "ebbfe69308d05fbc1e9d5ebb13f80977a2d1d5fe80655e3240b50ad94884c231",
            "df6321917295f7d840381ea20dd43e9ea500304a9bbc85e84f7429c8e15a9717",
            "c5a45e476aa3f9837e2bd72eef1cacc1730033ebb166f258aab7292b4b490c25",
        ),
        "012": (
            "71322f0ca6917c95e9280e0601f655e6ae2f41f8c74a30c53915b130cb9295fc",
            "d9b96e19feaeb28e68d7a3de8b3473036c5bf9ce0de4f8d48c7d76361175c48a",
            "4d805cf80650288a697b65cc55c708e152aefa1ea21ec480c6eac3a4c518adb8",
        ),
        "013": (
            "22649248f57d425f36006890faeb91775617fe5f108cf73de43a4417b0a58e7c",
            "a3993363561011ebccc4a7633dc95fd9eae20540c662d16d9e47af3d7f47cb43",
            "ac7a6252fac273f2f621544fd425846aac224447c60cf6055aa770d0bac85444",
        ),
        "014": (
            "90308432686152bedd3ed5001172a7cb3838e700ec314076ff84143deb74483c",
            "12a9b5a346e9aeaf4259d562695487603076ed17118d1f92d012612240afef62",
            "5944205deaddd13b264e54d18e3fc73e7808b0f250efdd8d16793777dd77316f",
        ),
        "015": (
            "3b514c05f1fc3fa02670733572f3f952982f07948bceb0c70ec2dfd0d649c8c4",
            "cac92e327d26cca2ccfa7945cf4b57412a70a76a71d412945360d87ececb939a",
            "9674ef5f0245f5b443b705026dba42bc74a2882b50af0c530b4a8720b1c4fa3b",
        ),
        "016": (
            "e410b8e9e5d404021af4b15ebeed51c745cc11065911fda2acf23a7bc077bac9",
            "c60e9c5b33d217e0ffe5e882d68e331d4b57b1d06b5e70f3edfc1f324562abb6",
            "6f0e182530e982fdaf35cee1eac52342557f23ce271737a23d3264d5114a551e",
        ),
        "017": (
            "3b323f5b31ca259069e63897af122081b95452ef1572a26c3df7ddffb482f9db",
            "16eae2378d69761f31f75ded4dfeb15435390c0ee5252171a965f2310ac75b63",
            "95b3007a45eb9aeeaf9cb98dfd72a3afb70acf407086e9aded7f00fb94b622f9",
        ),
        "018": (
            "ef97df96e1692961c2482c46726d70ce75ef6886ef7b6c6bd176589e96175614",
            "0fbeca0381ef5a0ae596a45773f8790555f6822f97c74937621dac87c5216a60",
            "c3f246deeeeb633ceaaf18c95073ffc9802e931ac812abae05f6290328e7ce56",
        ),
        "019": (
            "389dcc78c6eadaed636f2a0cdfb98c7bdddfec6ec1d933f990475f69f3167681",
            "da29efbf2139ad5abd9b2116ea9df9858a64f80a24b49cd6654490a6551a4fa8",
            "1ab5cf49a47df10886808ecf9f6d21c8bcd6fd76ea69cf2c8e8c9a825bcd7b66",
        ),
    },
    3: {
        "000": (
            "d2bcc24197bab80327241b6422eb45d3a4c022674940c0d67cbd95cc972a092e",
            "fbc7d1cafe57fbf52b30d234b51f8d389bb9edd9025fe122d76afa1ca58809a4",
            "19ecfca29ea1dbaa031e113997ef82b328f8a6febaa13a6f84cc48d2f5a6782c",
        ),
        "001": (
            "19e9e4ae21781e81f4f023523882c7580a99f6afe897bd952af4bf27db75d730",
            "c52820bf1b7b7d8599af5bcf39531403d26040e8f1af0fba63012a789a7a4e88",
            "e44121964dc37b49fc1917de2e4d9216e45c737bda94c2dd5a0ab75a137759a1",
        ),
        "002": (
            "e77bfaa9a677e613a1950488d500f25cff0f956dfc797adea932253d0bcefbe9",
            "e6bc2852b7163fd234ac63e8b375fe09c063ee0694b4bcb5840adf39ef18c47f",
            "f6e51460cbe567058ca5234fd14eace2b8247f43f7d09dd1bcf12ec5003cba9e",
        ),
        "003": (
            "9bc501b8dbbd5b720d89065cea986ea208d3502b7a7914d0627064b1a69a3f3a",
            "0d3b6e101ff646017bc9d2802d50d180dee336684d06bf0d3a47402b27f8b39a",
            "457f98e215a806338e29cc18a6322bc3542ed244011c5142d0478562b447d86c",
        ),
        "004": (
            "502218383112feaf8e4c2139a24d45252cd624a774940204df3449ba0cdf2bc1",
            "0164668abdb247f14f9f6a86ca836599aae341c6b4ca2d258b01f582a41a72e8",
            "f74302e3181d9983fede52d1c60b514d3b2807d7e4935cfa62a60b91c128b52e",
        ),
        "005": (
            "bef20efbc33383229f716064b15edddb93a6e92defcc06b103732ffd9c182202",
            "d12502e9d782c9f140b5b05991e20ac280fb820a75a9b9f5ff4afacd31242ab1",
            "5a36c6cbeb3c69abb270d72e2c10aec5125b8bbd64b30f7457e53e683bc1cb5f",
        ),
        "006": (
            "7b94eae953e0e566b7592d550c012b13d0e1ea8e991e2a57d06fb2837936199b",
            "9dd94a3cc5aa7dd9dea8fde40705448153d3a0bb004e9ba494bd30fb6bb318e5",
            "0903c63f4a9d5adf812223b7010e6e287e61402c5792145b59abcdcaaaae9dcc",
        ),
        "007": (
            "43eb5ef5f235b14f5bc0bace4c6fb5b35732821e5c353b0903dfabf2b7cb7def",
            "f1a1fcb32c3eab5644d077246f49c1e1704bf85da7fb7a127247941155fa8ba9",
            "53e66ee7172fbacfd10af9d7d111e78ed119a7d7dd45c697320ba7e5f79c72b7",
        ),
        "008": (
            "3702e4bf3b7236585af053fdcc9ef87bc0bdbee8c3c154278437f7458573f47b",
            "f577d8dd5eb065a021f7227eb21a7266e4006b539868098a9aa05866899ee036",
            "b37a32f87db54158d192bf83205bba43e1a30c92f4fbeaeed8f7ee8beae6c644",
        ),
        "009": (
            "7dd68ab0a7a40a05e1c4efaa8e04c01775195377f92f188f99affaeb8373b915",
            "fe5a1a5a595edb8c9fe0cb29f2ab0520ba6d071c72bb01251b421e2d583b6458",
            "797b6da6fe68d932b7628b595d2c5289bfb51ed481c457240d736c40e0df9f24",
        ),
        "010": (
            "fa872ed1d3ffbc382804f3f0af684eae23411f85be421458217c9b022b555eae",
            "ae543b3109d77ead69f77eba36ba0b56aeb28e43f158a1761b70549ebdf76857",
            "3ec02964b834902770799ffe340737317a4618c0083ebd01fb2759e2deaca45e",
        ),
        "011": (
            "001fe50f8fb7687b9b0476b36a0e589b1b5b6e79b322860e0d0c5e1735867b56",
            "0793a96a2202c240b78a2240aaac69a7c609a6da32d678a122c24b3215944951",
            "99e47fc416b3e8e47237c059ca0a73b9f99d90e64a1fb82fe5402f2fe1bca1a2",
        ),
        "012": (
            "ec897d77080ae04d382c42f4a139ee3351aaeece7917cbc44887fd07a5494869",
            "e413e99e9efdf7c0688a039881d02832ddb5ca6cbb88305dda1c494c9dd757b6",
            "f10bcafb163c0bd784c3a30df680e41fe1f42bc2a459ea95999ec3b095562222",
        ),
        "013": (
            "76179e1a79ff31af643486f4f4bf1d0cc6fe9358c314e5ef86fc03d601282da9",
            "061da546f221761b4439719017553d65ca1cf11963e30f849cf788dc84373836",
            "e6045cdfd4b733117c27daeb682b7dda1b2337aecf2ed33b8ab6a0b736858c03",
        ),
        "014": (
            "5468fccd707d978f5fcdffdebfc747a1728113adc3ead396d7d7a2b396ecc50b",
            "dc7567e5c176e37d6c01743a45d311c934bce2616799fc38209e049b1b2946f3",
            "798070cf8ed8fb41005349476ff1d728859d2a00488e51503904a4f0a14cee91",
        ),
        "015": (
            "c198ec386b5cbe1ad2b696316a641461797538016bc637d7a725159fad94d21a",
            "de65688aeb74cbb7969dfdde90243a0b80f2f7f6461556a95e82fc7eec72a302",
            "5a00931853ef3340fb041aafbe73d239291f1ef658e522256b6bb2becaff0b31",
        ),
        "016": (
            "cd4e04969e7b4d7811fa7993eac60b9e30cc202b64a9b90d4057be77edcb4e65",
            "0525c5e286d0308ef1321d667256d6b7a7026e08d937966ad5633bbe50e96f6a",
            "54f0d6e96064d496bdf5dd23d8cfb860cd939bc50987528d99d5521b8d91111e",
        ),
        "017": (
            "e2b5c910c282891a23629a80395992c24d1ad28ae88c8cc2400ad1f149274fb6",
            "94678c1d2e568f3b7c3930d311a60b114e36ea88283e71363bfe93c03e12d118",
            "fb1ab06056064adb970efbb79a65cf6cbc990d757359bdabcb5d2fc13c597c97",
        ),
        "018": (
            "6aac4318b86bf4e9518f3bc4cd1891c39a395126afc89db9b0a6d67616332bc7",
            "03f4dfab26ab916df22eaa06963078e5a80b5b59282f6c74a789fb064480a407",
            "486c8e0e93a95b7b7a977bf987843ff71ddbf3299629f35cc0dc47cb48c72437",
        ),
        "019": (
            "4014e1176e0eceff096d75b72feaefdb29fb751865656c45c2c7c350150199bb",
            "79a3eba142b93fcaadd400dadbcd936d828aa86aec5c263fb24a0a87ecc41570",
            "c0b950397ad58c56d3ac7921cb0ca7b34445e2723dd1e7baa4b1a44a8eee6844",
        ),
    },
}


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_normalize_outputs_match_golden_digests(tmp_path, seed):
    corpus = tmp_path / "corpus"
    assert _run(["gen", "--preset", "d1-main", "--seed", str(seed),
                 "--count", str(COUNT), "--out", str(corpus)]) == 0
    got = {}
    for src in sorted(corpus.glob("*.diagram.json")):
        out = tmp_path / "out" / src.name
        assert _run(["normalize", "--input", str(src), "--out", str(out)]) == 0
        instance = src.name.split("-")[-1].split(".")[0]
        got[instance] = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS
        )
    assert got == EXPECTED[seed]
