"""Exact CLI outputs pinned by the SHA-256 digest of their stdout.

Character tables, exact limits, n = 30 spectra and the oracle's edge lists
(every generator at n = 2..6) must stay bit-identical across refactors; a digest here changes only when an exact output does.
"""

import hashlib

import pytest

from symwalk.cli import main
from symwalk.partitions import enumerate_partitions


def _argvs():
    for n in range(15):
        for fmt in ("csv", "json"):
            yield ("characters", "--n", str(n), "--format", fmt), None
    yield ("characters", "--n", "16", "--format", "csv"), "16"
    for gamma in enumerate_partitions(7)[:-1]:
        yield ("limit", "--n", "7", "--generator", str(gamma)), None
    for gamma in ("30", "7" + ",1" * 23, "2" + ",1" * 28):
        yield ("spectrum", "--n", "30", "--generator", gamma, "--format", "csv"), None
    for n in range(2, 7):
        for gamma in enumerate_partitions(n)[:-1]:
            yield ("oracle", "--n", str(n), "--generator", str(gamma), "--dump-adjacency"), None


ARGVS = list(_argvs())

DIGESTS = {
    "characters --n 0 --format csv":
        "7abacd1da1e604b1f4f3f9d8e9f0570e2eb63e0d34f06483326d00d18f10e710",
    "characters --n 0 --format json":
        "a33622af54f77e98050e2490a4785a29f09fb3e9e6ab088dcfc77f13442ba78b",
    "characters --n 1 --format csv":
        "9682726bbbf8d5d222a859afa3955ba8033e5c64cc1d3fc350f1988d0be682fa",
    "characters --n 1 --format json":
        "22295f28cbcf1d727c5849394cda73a8fe84fcb2331e2a1a4df4275361091a4e",
    "characters --n 2 --format csv":
        "bf29de1c3f15a4ed17579c67af674d60fa1c0f45d311ac0975238abd0c80d60f",
    "characters --n 2 --format json":
        "ff833416ba7a0b47495fa10b39a3cc36ae0ee9bf42264c9be88bb67bf2c98da2",
    "characters --n 3 --format csv":
        "a3fa92b8a0568a8814d9453f81f3b50dc15aa24bb9546c64bf18f2b6bac47a8d",
    "characters --n 3 --format json":
        "5eb454ab8ac01e54c465a31e596154a4cf2034e43a6f626e18ccef51e395e392",
    "characters --n 4 --format csv":
        "3c35aff7c531bf2e445791bd5bbe8aa129d0b8a0e8668a8ab3b4f6d9a9ab3b9e",
    "characters --n 4 --format json":
        "2622ddce71431437c35813bcc6af552c68a581ce4d0497fc6eb4f5fb684526c5",
    "characters --n 5 --format csv":
        "126bc89af6347086facd8e09a7046a308f8f2f8ab2a842c7d7dfdb0e8bed58f2",
    "characters --n 5 --format json":
        "e6787797fd8b9e013cefab2fb9f7bee3cd6d05dd31c92c0b8bf475135df96790",
    "characters --n 6 --format csv":
        "cf8f1e988a7d29ec85267a087929f057d6c6a0661a2ffdd8e8ec4d9b4956e95f",
    "characters --n 6 --format json":
        "9a245554256fc1769a28eb6a08822a7d15c3fd4758bc2b87e322f45d34533117",
    "characters --n 7 --format csv":
        "5b9e0ea980ef782dbc9af3841778d219e22a6725ecb1b3624a47e0bb0f082c1e",
    "characters --n 7 --format json":
        "a505fb13e14aff529c6ab05d95f76ac5ed11aa199ad62f2ed5da3bdeebaf2819",
    "characters --n 8 --format csv":
        "8929a7bee29970c5ae07e2591a7043825538583e40636a913c37f55dc3feaa19",
    "characters --n 8 --format json":
        "e2af649a90a780cb03f73679f8c3e4fdf9eaa4272e3437bf50d7d0f33b2c8384",
    "characters --n 9 --format csv":
        "7b4fd9cde3a62fb74399c247e2968ee55b5388558ca16423321015a59075b638",
    "characters --n 9 --format json":
        "95f2af138f01169b4e882a72fa6466eb8d9a6c8052b5d66ffa24cb5a8bf7466a",
    "characters --n 10 --format csv":
        "9d4ebc1920fa8ff2440c19656f45257869bdf5e2796c55facce44335a216b1e5",
    "characters --n 10 --format json":
        "170c76c042a6ee8b997cbf87a94190daaa7ee09e9fa626f58f3f338354cc97da",
    "characters --n 11 --format csv":
        "ee0de873316977034ce0b4b7563da42ffcc1ac76046d96980878a277b633181c",
    "characters --n 11 --format json":
        "c6b54f12c4ce77002189bb3f1729df47ea3b579ccb033ae6e2d2922ac9d9e80e",
    "characters --n 12 --format csv":
        "92ab3de610479c6b7c53894ab359459bdd3978f378870a594fc6bec70aa22f1f",
    "characters --n 12 --format json":
        "5d203dd2ae6653a853e1d30d772fcf529584ecc997bc7e819067772dd550d6e4",
    "characters --n 13 --format csv":
        "2f24dd72ee2db2e42137cdce6d449bbddeb3c183d7320cb25b8b378bb4357318",
    "characters --n 13 --format json":
        "9596ec512e8162a9dbb472cc3bdfe96876f05ee2bfd7731217a6c6160b57b891",
    "characters --n 14 --format csv":
        "b3071beb72360eaf7be200ac8149a6a46ebd58060dacc643263af2ccc37a1f25",
    "characters --n 14 --format json":
        "0c9f0760adc6d9a88fe50fccdb9fa957cfc795ee05ad12c808def6cab61e779d",
    "characters --n 16 --format csv":
        "c957b9013b406b57f856b3196bf1639ee0d7d55eb47af12671ab8e5de1cb101c",
    "limit --n 7 --generator 7":
        "5372c6d323072895c126848be180de5d98f3f16ea557569c5d3aaff416344127",
    "limit --n 7 --generator 6,1":
        "70e4c3bd3f931fb500c11ec556aef39d61135ca6658fe23453169462f0c11185",
    "limit --n 7 --generator 5,2":
        "fe5ccb90b2e4c6546c5d92e9c70a423a1dc25ed0a37f0883cc2a69625f8e0f82",
    "limit --n 7 --generator 5,1,1":
        "1b234fdb3f2a9eefc652ac03b93c8a604ee485430769f6ae54324c264136bab3",
    "limit --n 7 --generator 4,3":
        "91b8b4ba95bd5113c57577b665ce451600ef9ec161dabcc793cf8ff4c21e3dd9",
    "limit --n 7 --generator 4,2,1":
        "9558b453980f1ecced40a6077841d1f1e8f3797ce86c3c4e66069ccdbc7c1378",
    "limit --n 7 --generator 4,1,1,1":
        "84b77202078d53b766d4720638af6339d61dd5d0b1d44ad9d19145e4753c504f",
    "limit --n 7 --generator 3,3,1":
        "c6effbd37d819ca634f0f210adab88273c88c0569345a76cd13d2838656f0de5",
    "limit --n 7 --generator 3,2,2":
        "af08fa78938a75a484f4d1f61b183375e05a4f471e4e68f1bab27c1144a661be",
    "limit --n 7 --generator 3,2,1,1":
        "7ff8cf12cad7cf35a5b183fbd45c3ffe0292c90a6fc1e15434f7e6ccc8b48a4c",
    "limit --n 7 --generator 3,1,1,1,1":
        "95e5201f46e89e3aabbd195b38ecbab168dd2e00b3dde9c1de19af303e13f5b9",
    "limit --n 7 --generator 2,2,2,1":
        "3f0c8ff66cf5177e54a46974631148cb58cfef6900f81098ebe11c20156f5a46",
    "limit --n 7 --generator 2,2,1,1,1":
        "f556e0db01a4f3f0e26839e2a258430622599a013a1610953bf45f36a7baf244",
    "limit --n 7 --generator 2,1,1,1,1,1":
        "f28b835d52fa579b1bc48afae1e0aa60d751c5ff608d5cd263fdfbf8bf34138b",
    "spectrum --n 30 --generator 30 --format csv":
        "32d618ad965f025a428f90bf1b3caee3f678c95756d0f4972f0052c4ef5722e6",
    "spectrum --n 30 --generator 7,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1 --format csv":
        "fcfe7c179671aae0b87a4930395b8bbcdb10151c757a8e023198d8cc072a7922",
    "spectrum --n 30 --generator 2,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1 --format csv":
        "8bdfc3a78d299a2884ec8e0fe5f3c5a6266dac7e2398e8a38e966915a386bcee",
    "oracle --n 2 --generator 2 --dump-adjacency":
        "2b39f514153e89d2d08e903c5b3a45435cfa07d3dd28c8b7241c28c10c59ded1",
    "oracle --n 3 --generator 3 --dump-adjacency":
        "e6b22cf4090fd3e5726bb3395090c39ade4f1c5b094b37da655726ea32ed7bb8",
    "oracle --n 3 --generator 2,1 --dump-adjacency":
        "42945bc30050c769e33d5c8155497f865ee34254aef833d02743cb6f4dee47ef",
    "oracle --n 4 --generator 4 --dump-adjacency":
        "de7e848c66f909856b02c2f5cf7bc7562227168daf6d4cd6c36733926ae2704d",
    "oracle --n 4 --generator 3,1 --dump-adjacency":
        "ce4c1b8b8e96e79d5b44d9c05ab014711a94fe8d5cd5cb2596f3810305336017",
    "oracle --n 4 --generator 2,2 --dump-adjacency":
        "d301a3e262227aaec71610ee136ed6f475ad9fc1026ed1c27315b83ad00fc684",
    "oracle --n 4 --generator 2,1,1 --dump-adjacency":
        "8c0fca34d90784fa4e84dc0fccb3128051c2bb1ac79fab7b74f4c1e9ea00ba2b",
    "oracle --n 5 --generator 5 --dump-adjacency":
        "89435089654198265df7424aa4b94d545d7c24223b5d3ed67763391fba0c363c",
    "oracle --n 5 --generator 4,1 --dump-adjacency":
        "b4ab1149dce1d5d142a2ff7b767f64c48c62d811ea70cfb59a9fa48c59ee24f2",
    "oracle --n 5 --generator 3,2 --dump-adjacency":
        "e8495ba6df279fbeabfc0c75778ee1d31e1936868a337eb482be23dc5749253e",
    "oracle --n 5 --generator 3,1,1 --dump-adjacency":
        "ecab8940b8a32103ed4c8160f3948529bb150563094f98ec3dad8f3c49675a96",
    "oracle --n 5 --generator 2,2,1 --dump-adjacency":
        "9914349ae6f2348b501e967c5ee917efba292d99b68216a493ac4209b9534ba8",
    "oracle --n 5 --generator 2,1,1,1 --dump-adjacency":
        "1ac82dbbd5ce5d08123eef60395df197dd5f28f1243f4b61f7dcf0da21c292a9",
    "oracle --n 6 --generator 6 --dump-adjacency":
        "17713d08ef9103a90dc877cd3872828e53a8300f566b37cd2a625fbf2b7f1a18",
    "oracle --n 6 --generator 5,1 --dump-adjacency":
        "16ce26eefb772189611d993b3d18dee8e5c5e687e8478c2aac3e6c30bcfed34f",
    "oracle --n 6 --generator 4,2 --dump-adjacency":
        "c4ab17b23ae6c41419a5eebfc71cf57f484fab0386c05fd3b8d9cc1c0c665c19",
    "oracle --n 6 --generator 4,1,1 --dump-adjacency":
        "e08ba6260ab439f75330cff371b7ee8fc6728e249fd29bb0a11bc49a9ebdee56",
    "oracle --n 6 --generator 3,3 --dump-adjacency":
        "49777fbfb29a4659bf1ee17782be4080f27ad8048199833027bdb036820be246",
    "oracle --n 6 --generator 3,2,1 --dump-adjacency":
        "a22931a70f646695ce13a2c21971ee1a27ca644e1a91eec910bc7e74640d82e3",
    "oracle --n 6 --generator 3,1,1,1 --dump-adjacency":
        "5dc38547a1c1699c3ddb2025f6da5acfe9650a56a0a7cdb417ad03e320c2f29e",
    "oracle --n 6 --generator 2,2,2 --dump-adjacency":
        "560fd7d218dad3bdcce65f61b878c5202caef86249510055c80f008270107835",
    "oracle --n 6 --generator 2,2,1,1 --dump-adjacency":
        "1a337c7b11cc79358b54b2fd856993c2e5c768ec13da07c81565c7f63cd0d919",
    "oracle --n 6 --generator 2,1,1,1,1 --dump-adjacency":
        "8195795083d7340ae4a96c27808e1248f2067ca09bfce6628af873a7ed2752dc",
}


@pytest.mark.parametrize("argv, max_n", ARGVS, ids=[" ".join(a) for a, _ in ARGVS])
def test_exact_output_digest(capsys, monkeypatch, argv, max_n):
    if max_n is not None:
        monkeypatch.setenv("SYMWALK_MAX_N", max_n)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[" ".join(argv)]
