"""Golden digests of the simulator programs built for every registered kernel.

``test_shape_sharing.py`` pins how many code objects the generated
programs compile to, so a reordered slot, fanout list or mark table would
pass there.  This file pins the programs themselves: for every registered
kernel at the quick evaluation sizes under the ``optimize`` and ``none``
pipelines, plus gemm at size 16 (the smallest size whose multiplexer
ladders lower to ``if``/``elif`` chains), the sha256 of the scalar step
source, the scalar and vector-dialect clock sources, the vector-dialect
combinational source, the fused-run source and the fused run's simulator
image.  The image is hashed by value (sorted JSON), not by its ``marshal``
bytes, whose back-reference flags depend on reference counts.

After an intended output change, re-record by running this file as a
script (``PYTHONPATH=src python tests/sim/test_simulator_golden.py``) and
pasting what it prints over ``GOLDEN``.
"""

import hashlib
import json

import pytest

from repro.evaluation.runner import (
    QUICK_NEW_WORKLOAD_PARAMS,
    QUICK_TABLE5_PARAMS,
)
from repro.flow import Flow, FlowConfig
from repro.kernels import KERNEL_BUILDERS, build_kernel
from repro.sim.engine.cache import base_artifacts
from repro.sim.engine.codegen import clock_source, comb_source, comb_vector_source
from repro.sim.engine.vector import _image_of, _interface_specs, vector_run_source

PARAMS = {**QUICK_TABLE5_PARAMS, **QUICK_NEW_WORKLOAD_PARAMS}
PIPELINES = ("optimize", "none")
#: (kernel, size parameters, pipeline) of every record.
CASES = ([(kernel, params, pipeline) for kernel, params in sorted(PARAMS.items())
          for pipeline in PIPELINES]
         + [("gemm", {"size": 16}, pipeline) for pipeline in PIPELINES])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _key(kernel, params, pipeline) -> str:
    sizes = ",".join(f"{name}={value}" for name, value in sorted(params.items()))
    return f"{kernel}[{sizes}]/{pipeline}"


def record(kernel, params, pipeline):
    """The six digests of one kernel's simulator build, in field order."""
    flow = Flow(build_kernel(kernel, **params),
                config=FlowConfig(pipeline=pipeline, store_dir=""))
    lowered = base_artifacts(flow.design, None, None).lowered
    specs = _interface_specs({name: (memref_type, None) for name, memref_type
                              in flow.interfaces.items()})
    return tuple(_sha256(text) for text in (
        comb_source(lowered),
        clock_source(lowered),
        clock_source(lowered, vector=True),
        comb_vector_source(lowered),
        vector_run_source(lowered, specs),
        json.dumps(_image_of(lowered), sort_keys=True),
    ))


GOLDEN = {
    'convolution[size=8]/optimize': (
        '88b51b24d6783ff02dc670ad241590419b475ca24b3313e88b26b73896f3bfdd',
        '4fecfa07622290cf6cfd7bbf0d955cdbe0ffef600b38b64d4e1fed09817a1b9c',
        'a6fb0b38fca50bdd0cbe1b7fc99d9ecf37da1fc0870559cd9a960e0674c85652',
        '57d1ada89038f9754ed9a1d722f2a16c3293781634313deaf478eb31d65ec7db',
        'f10bb773904f7ea3601a34f5132ed27d5460382e8fb780e1be6a69327d2d53c0',
        'aed46228f9c64553efc2081308ff02c7bce50c70888291122b27330b0f19bc7e',
    ),
    'convolution[size=8]/none': (
        '73891bc2428de96ab4acb2d1cab29aa256da35a9869eeb7557c8538818f4961a',
        'e81a8fbc8b6392011d687c879370e67faf9eed712a59f7f32034e179a12f5395',
        '567f91ba1f001e9eddab22d1c7241f1bd5935ca679d202aaa6f6363da98a0a71',
        '28b926f4b80f04612cbbe4d36a896940c839bb9714acaaa8a5bde3e7521417cb',
        'ae3b1d5e734d5bbfd4d0935e38868522fbb6954ec6c69b1733cf83ce20972681',
        '1fab706f9efb8e13b336fb92866bdabf4f7862b386f948c47a78172c57a51557',
    ),
    'fifo[depth=64]/optimize': (
        '79aa49f3bcfb47a13fbd667ede0762bcd15b8760d7a68d5fb569cc62c7bf4b41',
        '374f674c992d659e2bba1fdf819827f2520e554e74224b0c94687d1cc4ab66c1',
        'eac1e0f246e757562d15914707d957dcfa9bab08226297668eb22830876b137a',
        '6590e1320097783ca7bc3f45d35a08b856faffe9f885e6676183541ce05ef0a6',
        '46ff1f340a3137dcc07e6ae6882714b4e463108e98d58faaed921882d8d216f7',
        '0ca1e85556a9b7469601c1c224017f17dd14fe24bd773fcbd98d759e037e6b9b',
    ),
    'fifo[depth=64]/none': (
        '45c32f72f7854ee47db32b6f1228f863d2e38f0f31abc34a3be394c5d55ed3ef',
        '719414b7866cb46c836cd12a571d3c62c403e721b943154668c5cfff33c693ee',
        '3564f55d3f650869bba1d2fb7da1a9c1ee165edab17dffc0b9905af29b27a4ca',
        '9301047465827d74e78ceb2b3518fa20b605a7bcb819770275ef76cd0999d2a6',
        'e4baf31079a8e387e3f0207016572d8d0dc140c36080c681ccd6d374b2e1ab9c',
        '0ca1e85556a9b7469601c1c224017f17dd14fe24bd773fcbd98d759e037e6b9b',
    ),
    'gemm[size=4]/optimize': (
        '857f71915e7c8b428c36ef4fbf6d8a37f923eb2ced2699891a1224448a234569',
        '6b58d43d76212baf937d4699b86ba1a7b62339119c7e66a507c5ebff35cc967a',
        '5cac6d9004cbc83fff74aeb85dcef45c35fcac87d7434ea096c5cf80681aed34',
        '966da62b11fda5142d54e4c76089e64e833d87807244c228888c021a1a515110',
        '2125b7d6fb6e502a1fa0d137f903d40b757b26b952b80ec22a565dcc3b48a335',
        '12cfee4540a5aeddbf833e336c0c93744ae3594434eadedbd5166c57794571c0',
    ),
    'gemm[size=4]/none': (
        'ee453f93648300a507a1bdf6fea7d36526b118a412e68b7645bef029b67196e2',
        '74ad8ed1a69e0125f22f5896c5973b8d1fa1e51f01226072f403eae2313a6b35',
        '330044ae7cda45ae992d86fc0af42a7bb9fcaad205b67e369d8fa138b074c1a7',
        'a049a1b661d7c84b91f29bc70d3c2623aa2b2f395b5a240a7fb1760274096bb0',
        '9aea1088c69d7389851e9dc7c82856ef79cb763952d832ddf18d97d3843fda10',
        '12cfee4540a5aeddbf833e336c0c93744ae3594434eadedbd5166c57794571c0',
    ),
    'histogram[bins=64,pixels=64]/optimize': (
        'b44f9b71e5a99da624c33ee03ca85f4be97d3ed418ae5ef9fe36259d0ec00ee5',
        '4045403bfdf53f69dbe37fbf51dce128b59018355a737bc78afd54c8dafddff9',
        '648f3cd5eb73b2c399e25a66f3eecd83a05f9456c577abd185dbbbb1f55f7cae',
        '9c9f56c520a74033d185608410febe241c1bcadea9e7ee8a79b7062f9dbd201b',
        'a0bb394d91d869357730efb7e0fd0ce88facc61a4a9b213b94e0f89b3a493fd0',
        'c46dcaafe4428535672dfb4e417ea57d16a4a1c77fce038d60a04f81df782d16',
    ),
    'histogram[bins=64,pixels=64]/none': (
        '3150c0239f07d5df4b0e9ab6a8792559d19e2f34d0dae4e73d5255a6bdba3fcd',
        '97bd6a3abbfe441f9cec018c4a2e3ce4bce254a6c6980a3063c1543dbaab4ece',
        '40ff2960e983d8f091640fa927981a33763e19bb0240abe2b08c1eace1ff8b3b',
        'a8911b181782336f77cd381c842263af1a919947b11dcc2c312311e286f38d1a',
        'a8ffb068aa860d06247e33612ff778a9ec7474c0d321391c18c5696c0ac3a829',
        'c46dcaafe4428535672dfb4e417ea57d16a4a1c77fce038d60a04f81df782d16',
    ),
    'matvec[size=6]/optimize': (
        '83b096cc6eafabe17e52359a497210f8588e6fc36e0f45e75183ba4a14668920',
        '317aa8fc8fa1a5a43df17beefc1c4b2041e15378a3e2f0ed25952dcaf8cd74e6',
        '66f168406f5b45b4cc2d0dfe2c370cb668bfea775a4869efda6085f220ed018f',
        '4dc5860dc33693c4445db9c7395f2df95bface3028d56ba7f0692613e6c486ae',
        '602f55fc4e886367abacc66b3c42a548af3fadc1eabce4bbbf35318e788c3c89',
        '106c4616cfdea2afc0f0862a12aaebb0096dceb617ca214ae99b73f1683ec26f',
    ),
    'matvec[size=6]/none': (
        'ea69636f7025d81c185ae871af04fb96b572c94f6fdd2867d20b1e3239040994',
        '8e60d91b04c92f8dd1f05435fe4e762d2d96fa516ba729738fe9030f599637cf',
        'dd99b58588c4bee0676c7c2b563a0c59dc1d0cfbf1e416df7242b5a3d721a3d8',
        '1bdee049df03748f2db3d76e05fba9c6ed4137a9b973ccf4a520054ea46a4db0',
        '03fb174bb19eb85522c906d7db3ef0cf35d959aa7cf3a44cfbb2a15fdcda2c7b',
        '106c4616cfdea2afc0f0862a12aaebb0096dceb617ca214ae99b73f1683ec26f',
    ),
    'prefix_sum[size=16]/optimize': (
        '0cad96f82b88ec6edb6284049e4b3f0f22742caad04beaf0b149a15bb1663972',
        'bc77f570059a91ada7ea542204750672c23f9c2bcf28501ea9458361ac1fc0db',
        '67e8b619d52beced2e242cf9a24f30e548382a9e6a21240a7f107f48be2f8187',
        '1bfc811bde61b0d732b57ee3c18f672fc4b78782eb054b4c80bde2170ba5d4db',
        'f6699a96d802568619ac86d194188fc8159ea4f8c2c85a293de38b5febd39897',
        '294305e9b320e59e75dd8db6e7cee3640796b406c715c0cb371a9da3c0aafddc',
    ),
    'prefix_sum[size=16]/none': (
        'c7e10fac9b8053c399cda477b41e54690ac0227e30f3940522ef3f472d2bebeb',
        'ebfe0365c10ab951a6f7b465017ef6883c2d2787118f380c7fed827c153c158e',
        'dc864f8ec4d415ebf224df3f7159d8b2dd3a35cd70f894fdfba0a18488f4a991',
        'ea771d0f211aaecb456d2b3b655f433bdeb7c0e339dd8d350f8ab2072ef9ac46',
        'ba147e1552b9bd3839b9d55ac87be490c9fa959ee7570cb0dbaef7156067ba33',
        '294305e9b320e59e75dd8db6e7cee3640796b406c715c0cb371a9da3c0aafddc',
    ),
    'sorting_network[size=8]/optimize': (
        'a0f6472686a4c80d7a5e223a8687b1bceb92bc990c356795603d1205a40a1d81',
        '2dfa50ad0c5296c1eb9f2ee56f6b27be5f9560e4023cf06e546dfcac290a65d8',
        'c8c963ee9b5bd00967d2e613bbac452ec77d286b5e694d4a90a441aecf6e7849',
        '14a632b381d8624ee491a1e810c115e8752b771f91542b37c4b03e52be222f49',
        'd0d653915fc57c095b1e43ec302b50cbf0a4800b23cddca88b1f6c8f4e60ccd9',
        '6b31fe5a9cb330cefeb1d3a36d0411bd624b91a2e79a683fa48a410cd927e4aa',
    ),
    'sorting_network[size=8]/none': (
        'a0f6472686a4c80d7a5e223a8687b1bceb92bc990c356795603d1205a40a1d81',
        '2dfa50ad0c5296c1eb9f2ee56f6b27be5f9560e4023cf06e546dfcac290a65d8',
        'c8c963ee9b5bd00967d2e613bbac452ec77d286b5e694d4a90a441aecf6e7849',
        '14a632b381d8624ee491a1e810c115e8752b771f91542b37c4b03e52be222f49',
        'd0d653915fc57c095b1e43ec302b50cbf0a4800b23cddca88b1f6c8f4e60ccd9',
        '6b31fe5a9cb330cefeb1d3a36d0411bd624b91a2e79a683fa48a410cd927e4aa',
    ),
    'spmv[nnz=3,rows=6]/optimize': (
        '5194bdaf8c3052ded2dddb1532bbbc6dbff3a824767ad207e42059ce9c42581f',
        '457a4ba2ed6b1b81e055b5d6b76dee777ef2c2644f6331bb6b55ab56a9cdec58',
        'c3d95949e0df1de3565f0164bcb435c19fa4946167eb92358154f210637904c3',
        '687ec7fe39da6cb926ad27b31d441a6d46e4150dfa2ea321186fdca4b143b63d',
        '4fc59c16936b34d3d4598ea8b753742018e5add7f4895012711a31d443248e9f',
        'e623769e7e6d1d7366ed5de10ded2fb1d9ac093173df4d5c96e068e2f6129555',
    ),
    'spmv[nnz=3,rows=6]/none': (
        '69bd88cbd419cfeb9ecc8203d7100b0c730371216078a01c45b3d6b1ab9be342',
        '6ca96d600adaa0e23e7501d0b425361440d5e05e9e0398e812330bd2999b2737',
        'b8915c5246696a73a0545a12e30a404b5785a9d9c1682e89753ff90474a5cad4',
        '165be2d2737b6a3fad8dbe113896cc0c436c62bdc20162111f41ba7a56edc266',
        'effe38a870e6ad9b59b9902a1dfadfa56cd03b6969d5a5f558f618b6bdde34b0',
        'e623769e7e6d1d7366ed5de10ded2fb1d9ac093173df4d5c96e068e2f6129555',
    ),
    'stencil_1d[size=32]/optimize': (
        '5d3e20b82504292336564890ee0a889fb125f2d804d42dfc9f7931c86b0e9218',
        'c0219cfbe76ddca8b03b21e9dbdb25a621969bd73cacb11f05a6c63a0f197863',
        'c78e1ee03a418161bf3e8b9ace0fba2b012108f7ecd15311cdb34889aa7af0d4',
        '9ae84c10819728f6dfe989741a8f57818973db36548cd4def37f76ebc60dc9c9',
        '5bdf5e7db50d6f383e6f31d7e6dde74a74fa80a898fe28cb2704039642e240f0',
        '653483efcf8c1cec8f6959d1179ac5c32279c3c783327e63d3967906de43d44b',
    ),
    'stencil_1d[size=32]/none': (
        'b48699eb599438cfa80b2b499caba596f081875a640771aae5bba608f088d420',
        '08fa0ff526b4f6f95942a2ba1c389a880b4193ebd108c07a97847b9b8381ca8d',
        '98e752b831107a557eae08daef093ce20f263443e5cd64f158c5ede51f22f233',
        '24275372864103f0d60f580509619bd1dea56f3d7f2205ce2f1389a75d807241',
        'c70c62320f1b21c62293d01067fce72c62647f09ef63862e2777f1563daefd05',
        '653483efcf8c1cec8f6959d1179ac5c32279c3c783327e63d3967906de43d44b',
    ),
    'transpose[size=8]/optimize': (
        'd31a304e3da56021b2a84c049723a6bef87d581c96dbc3ca21482112a9c2a66b',
        '0ef5afda037a252a342b8ef67b910804c27f80bace1006da65c22f2957f3e48f',
        '054e3b54cf2a8b9b41b5cfb557780b76eaffdb0a0c8f9250f68925d309a96cac',
        '42324e9aab855f47c541f6fc4c1fac80e92d23f15fdc328f06966351f1fa89ef',
        'dd91744c7b104469c2c64330217eca1b03c7e09fa6395816a97d09ccb8938482',
        '0dbd4ee448e686c9f12a86e3911e51681d4d8b2b8de22ce4ff2d07e260328b49',
    ),
    'transpose[size=8]/none': (
        'fe0254658d95bd4aae17f1c916d3a744d7c41e00212f48035244ddb7a62b5f3f',
        'ab52b0dd702d486efaa33094aff1b0f56a249fec76489e50658cbdcd7324dd97',
        'c8a1d8971521d02ec2aa44f1b744d94ab98f548dd425032b452755592c9630c0',
        'ea31b861eed302fba3ea32e41564496b4a17ef02fa0fa80caa312d50d7f16c6a',
        'adc2b95671d37b43bf7a8f2983fad3b15ec0052faa863e7a543ffa0887a7f187',
        '0dbd4ee448e686c9f12a86e3911e51681d4d8b2b8de22ce4ff2d07e260328b49',
    ),
    'gemm[size=16]/optimize': (
        '4002e731fa79fc27dc53d2f86198ea945ef9ac6c8d969c7d05de181e1ea2f58f',
        '3192b912598763bb7af6ddcc7627d5fd391287c2b80ee600d1c7aee64fe70552',
        '74acbfd2112d2cba7b5873a6237cd4b953e4ca07445082874b5a9becb8d2668d',
        '5bf04f4a74b4338902d4cb511b4acf7f75735245ea4f38d92a6fc5c7b56bd56c',
        'a6788cef5290fd6762804b176d4deb5ae35dc6f3d815021cb9f3073e4d95a7ed',
        '281f066ce60694099cba24c1584974347c17eae5c4862a5292d7adcab8dd9d2e',
    ),
    'gemm[size=16]/none': (
        'a866b22a108d58c74fa63bf1ed7ab770705156ba3ed3992cd4506ca64bb34789',
        'c7bb9fa41126b3fd399be9452e111b295d21a5b75f25b1de5192ad25ba5e7d55',
        'aba5fe8f33257cd279e9bffca72078c7de8f8f9c9049dc5af7320c38d77c62ef',
        '12c1b9703e57717a10a629cdb7c82a4204fb76d18dbc7ada6a9a5ca06d917c9f',
        '58853b7531c3acbd27434868c9d2f162a8456139f2d46cee802db6f15d87137d',
        '281f066ce60694099cba24c1584974347c17eae5c4862a5292d7adcab8dd9d2e',
    ),
}


def test_golden_covers_every_registered_kernel():
    assert sorted(PARAMS) == sorted(KERNEL_BUILDERS)
    assert sorted(GOLDEN) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("kernel, params, pipeline", CASES,
                         ids=[_key(*case) for case in CASES])
def test_simulator_build_matches_golden(kernel, params, pipeline):
    assert record(kernel, params, pipeline) == GOLDEN[_key(kernel, params,
                                                           pipeline)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {_key(*case)!r}: (")
        for digest in record(*case):
            print(f"        {digest!r},")
        print("    ),")
    print("}")
