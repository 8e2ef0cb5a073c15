package foreign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"airshed/internal/core"
	"airshed/internal/machine"
	"airshed/internal/vm"
)

// coupledPins are sha256 fingerprints (coupledFingerprint) of the
// coupled replay of the 24-hour LA trace on each paper machine, node
// count and data path ("native" is the all-Fx PopExp task), with the
// node groups of GroupsFor ("heuristic") and of AutoGroups ("auto"). A
// change to the pipeline's code that is not meant to alter results must
// leave every entry as it is.
var coupledPins = map[string]string{
	"t3e/4/native/heuristic":       "1f5543954b01ec153439367549a6dba8c07acc767337afeb0f67bef9ca382db0",
	"t3e/4/A/heuristic":            "af7b04d032b1c41b69f4f3e2d61d2cf41ed2a90d5f5b8691005e7a59ebfa3f65",
	"t3e/4/B/heuristic":            "af7b04d032b1c41b69f4f3e2d61d2cf41ed2a90d5f5b8691005e7a59ebfa3f65",
	"t3e/4/C/heuristic":            "1f5543954b01ec153439367549a6dba8c07acc767337afeb0f67bef9ca382db0",
	"t3e/4/native/auto":            "1f5543954b01ec153439367549a6dba8c07acc767337afeb0f67bef9ca382db0",
	"t3e/4/A/auto":                 "af7b04d032b1c41b69f4f3e2d61d2cf41ed2a90d5f5b8691005e7a59ebfa3f65",
	"t3e/4/B/auto":                 "af7b04d032b1c41b69f4f3e2d61d2cf41ed2a90d5f5b8691005e7a59ebfa3f65",
	"t3e/4/C/auto":                 "1f5543954b01ec153439367549a6dba8c07acc767337afeb0f67bef9ca382db0",
	"t3e/8/native/heuristic":       "c601362cceaa79e5b44e5aa9d7360b5dc3ff3be08eeb45f96dc0078dc01acbff",
	"t3e/8/A/heuristic":            "93e7d78ab9f9478fceb52194dea1f72d8795941fa19b19feb84987860b05a034",
	"t3e/8/B/heuristic":            "93e7d78ab9f9478fceb52194dea1f72d8795941fa19b19feb84987860b05a034",
	"t3e/8/C/heuristic":            "c601362cceaa79e5b44e5aa9d7360b5dc3ff3be08eeb45f96dc0078dc01acbff",
	"t3e/8/native/auto":            "c601362cceaa79e5b44e5aa9d7360b5dc3ff3be08eeb45f96dc0078dc01acbff",
	"t3e/8/A/auto":                 "93e7d78ab9f9478fceb52194dea1f72d8795941fa19b19feb84987860b05a034",
	"t3e/8/B/auto":                 "93e7d78ab9f9478fceb52194dea1f72d8795941fa19b19feb84987860b05a034",
	"t3e/8/C/auto":                 "c601362cceaa79e5b44e5aa9d7360b5dc3ff3be08eeb45f96dc0078dc01acbff",
	"t3e/16/native/heuristic":      "ec9678c7f5603ee4cd1e9efd72c7da4cbc18a12f5122e5df612c26415dec6523",
	"t3e/16/A/heuristic":           "95fe5bf81ce5f18934781a32de8aa8eab423493d5ee32f2d604f34dfeba7e73d",
	"t3e/16/B/heuristic":           "2689bb6cacc26a34fff6781c12ba6ff48fc62f789cea1292ebb5cfe0522e9fb8",
	"t3e/16/C/heuristic":           "ec9678c7f5603ee4cd1e9efd72c7da4cbc18a12f5122e5df612c26415dec6523",
	"t3e/16/native/auto":           "656f9c8b30898f3cb11fdc9d97d856d8bae767a006766c8c4b4dbc6931ebe1f4",
	"t3e/16/A/auto":                "a98022b497a633fd2a80f50a563482ece48183cf0b28bf1a6e092b2742138f0e",
	"t3e/16/B/auto":                "a98022b497a633fd2a80f50a563482ece48183cf0b28bf1a6e092b2742138f0e",
	"t3e/16/C/auto":                "656f9c8b30898f3cb11fdc9d97d856d8bae767a006766c8c4b4dbc6931ebe1f4",
	"t3e/32/native/heuristic":      "f1dd220fec09ca00cd9281269ec6640758bad9a4467d81129dcecf54571bffc9",
	"t3e/32/A/heuristic":           "91a1014fd5babd794bfd6ead9e001609ae567a98ee6c4b0f7dc67e110f87c2a3",
	"t3e/32/B/heuristic":           "191dc3ac6faf8c098e2aed4768a98eb413ae6c31501fb6e8c4058647f7b795d9",
	"t3e/32/C/heuristic":           "f1dd220fec09ca00cd9281269ec6640758bad9a4467d81129dcecf54571bffc9",
	"t3e/32/native/auto":           "163050719579547bde902b649c4281d2910ce93c625150d9c05328327040eb13",
	"t3e/32/A/auto":                "76baacd8534e592dd3b1a19152640e2f1c46e9c3c94207c4631a7ef0aa4fc639",
	"t3e/32/B/auto":                "76baacd8534e592dd3b1a19152640e2f1c46e9c3c94207c4631a7ef0aa4fc639",
	"t3e/32/C/auto":                "163050719579547bde902b649c4281d2910ce93c625150d9c05328327040eb13",
	"t3e/64/native/heuristic":      "b3d9eceabbb33f441d42201a6e62b34989e1b75fd584413167ec1a5737211234",
	"t3e/64/A/heuristic":           "11931b8f228e865b9c3c9deb964e30dfeb02b10f5b5e0b075d18b69ede0bee55",
	"t3e/64/B/heuristic":           "e603b09ee6da21497ddd20ed0f3a0b5f0e4c4e854aaf0a76c474f07b46beff70",
	"t3e/64/C/heuristic":           "b3d9eceabbb33f441d42201a6e62b34989e1b75fd584413167ec1a5737211234",
	"t3e/64/native/auto":           "a0769d9461137a4397156181bd5410805eb60db00ee8744833f148e7e158e462",
	"t3e/64/A/auto":                "74aba4026683c4a512246979d165b6749bfa5574ac08c89f0763b543e59e735a",
	"t3e/64/B/auto":                "74aba4026683c4a512246979d165b6749bfa5574ac08c89f0763b543e59e735a",
	"t3e/64/C/auto":                "a0769d9461137a4397156181bd5410805eb60db00ee8744833f148e7e158e462",
	"t3e/128/native/heuristic":     "8256993ef0c1116b14473f4f9c553e539d147830172f2468cf586cf1d7ea43f7",
	"t3e/128/A/heuristic":          "ef1afd21f31e694f308fa69619cddcfefa10bdc8f9097332a9ef3677a7982a50",
	"t3e/128/B/heuristic":          "dfa9b00e8848712e946037b97533759115ca466f667aadacbf819b56cf777e4a",
	"t3e/128/C/heuristic":          "8256993ef0c1116b14473f4f9c553e539d147830172f2468cf586cf1d7ea43f7",
	"t3e/128/native/auto":          "9b7ffc96f9ed294c88ea7b6fd9c4b01f5035ffe7a0b20497603f26fc9cc66110",
	"t3e/128/A/auto":               "ffc9741fb06cc413efc61a0ac3266af6da83a4fedd1ba3341e6e33a847f83352",
	"t3e/128/B/auto":               "ffc9741fb06cc413efc61a0ac3266af6da83a4fedd1ba3341e6e33a847f83352",
	"t3e/128/C/auto":               "9b7ffc96f9ed294c88ea7b6fd9c4b01f5035ffe7a0b20497603f26fc9cc66110",
	"t3d/4/native/heuristic":       "46ed0eb74cdbfd8f0c3ac14a27b9acc9b530f8d52105bba2d6bb1701660f97fb",
	"t3d/4/A/heuristic":            "19cc848b50b10a42cd73134f71bb47d1542e1c4f1701b52ad75890b927f22ccc",
	"t3d/4/B/heuristic":            "19cc848b50b10a42cd73134f71bb47d1542e1c4f1701b52ad75890b927f22ccc",
	"t3d/4/C/heuristic":            "46ed0eb74cdbfd8f0c3ac14a27b9acc9b530f8d52105bba2d6bb1701660f97fb",
	"t3d/4/native/auto":            "46ed0eb74cdbfd8f0c3ac14a27b9acc9b530f8d52105bba2d6bb1701660f97fb",
	"t3d/4/A/auto":                 "19cc848b50b10a42cd73134f71bb47d1542e1c4f1701b52ad75890b927f22ccc",
	"t3d/4/B/auto":                 "19cc848b50b10a42cd73134f71bb47d1542e1c4f1701b52ad75890b927f22ccc",
	"t3d/4/C/auto":                 "46ed0eb74cdbfd8f0c3ac14a27b9acc9b530f8d52105bba2d6bb1701660f97fb",
	"t3d/8/native/heuristic":       "87ca0214fff0a34522d10f5859b1c0fde74e61f266dc9d132a38f3ed18ce600f",
	"t3d/8/A/heuristic":            "f1089c129d2ea209f088eaf93a4bb8c2c52a1097ade537775e2b842de960d036",
	"t3d/8/B/heuristic":            "f1089c129d2ea209f088eaf93a4bb8c2c52a1097ade537775e2b842de960d036",
	"t3d/8/C/heuristic":            "87ca0214fff0a34522d10f5859b1c0fde74e61f266dc9d132a38f3ed18ce600f",
	"t3d/8/native/auto":            "87ca0214fff0a34522d10f5859b1c0fde74e61f266dc9d132a38f3ed18ce600f",
	"t3d/8/A/auto":                 "f1089c129d2ea209f088eaf93a4bb8c2c52a1097ade537775e2b842de960d036",
	"t3d/8/B/auto":                 "f1089c129d2ea209f088eaf93a4bb8c2c52a1097ade537775e2b842de960d036",
	"t3d/8/C/auto":                 "87ca0214fff0a34522d10f5859b1c0fde74e61f266dc9d132a38f3ed18ce600f",
	"t3d/16/native/heuristic":      "61a4d326292333c2c49e891091eccc01a65ce21f02088046a33cc81990a02a03",
	"t3d/16/A/heuristic":           "770b2acb15f3bea530317954a1ded71ecc7642366ff616ce48b05ffa136c379e",
	"t3d/16/B/heuristic":           "13ac5a5c06abd9e9b4613491d1b82fc4596ca5f103e7905359caae87bc00c4b1",
	"t3d/16/C/heuristic":           "61a4d326292333c2c49e891091eccc01a65ce21f02088046a33cc81990a02a03",
	"t3d/16/native/auto":           "1422ea21835c1cbf0d2f74d5a48a94f241f2d1221a1a3ed0041df1cdc84069e6",
	"t3d/16/A/auto":                "21b85268076beb55ea22b89f972190cf74242f842da41cc7ce548acec0422bf6",
	"t3d/16/B/auto":                "21b85268076beb55ea22b89f972190cf74242f842da41cc7ce548acec0422bf6",
	"t3d/16/C/auto":                "1422ea21835c1cbf0d2f74d5a48a94f241f2d1221a1a3ed0041df1cdc84069e6",
	"t3d/32/native/heuristic":      "ef83acede66dd3cee516840f307c8aff76e958eec45ad6c7386f4796452f5017",
	"t3d/32/A/heuristic":           "c7889d942048f456b64c2ac05206a7663d526222fb0289a880a633784d1c4c54",
	"t3d/32/B/heuristic":           "8539d419b52a94283fe03a83afc5da413320a51bd3b2809f11cd7d5f24ff994a",
	"t3d/32/C/heuristic":           "ef83acede66dd3cee516840f307c8aff76e958eec45ad6c7386f4796452f5017",
	"t3d/32/native/auto":           "e0bef41b71a2c8d444796407be6cccf2d83ea7c8d6d32336c2f79fc8a303c471",
	"t3d/32/A/auto":                "a6a4caf4695494902a0cb619db2277ad7a1389b8c86aae230806c82b72e368f2",
	"t3d/32/B/auto":                "a6a4caf4695494902a0cb619db2277ad7a1389b8c86aae230806c82b72e368f2",
	"t3d/32/C/auto":                "e0bef41b71a2c8d444796407be6cccf2d83ea7c8d6d32336c2f79fc8a303c471",
	"t3d/64/native/heuristic":      "d9af05c31594efeb4dcc25887184d855a253bdf5d500a95c16231c9ac6f34c57",
	"t3d/64/A/heuristic":           "92900767757ea22ab4b49314f97a06586e48bdec8d0df748c99e6305adb681c0",
	"t3d/64/B/heuristic":           "f3a84b648bb53457125ef1888601c7995f9012560d783e8bfed98afc8bf86db1",
	"t3d/64/C/heuristic":           "d9af05c31594efeb4dcc25887184d855a253bdf5d500a95c16231c9ac6f34c57",
	"t3d/64/native/auto":           "04b6d5e161a30c8d738ec7bc8e5612db0f4ac90531d55d4034c065014f807e86",
	"t3d/64/A/auto":                "b1b9d9a2fc7474109dfa535cea05d31757a65a7c2bd5477c6b51d03ab6abe5c4",
	"t3d/64/B/auto":                "b1b9d9a2fc7474109dfa535cea05d31757a65a7c2bd5477c6b51d03ab6abe5c4",
	"t3d/64/C/auto":                "04b6d5e161a30c8d738ec7bc8e5612db0f4ac90531d55d4034c065014f807e86",
	"t3d/128/native/heuristic":     "aeb7b14017a2803a31e60a85d47cab480d9987d484d99747332c71930bfecf9e",
	"t3d/128/A/heuristic":          "dc390f1f6a7684570c1e0496f32833b6c8f846d93433040ca577b9934742d8a0",
	"t3d/128/B/heuristic":          "e93dfdba784110c55527e74000d94fbeeea1fc70702e54c3f0ca32fa28ac0fdf",
	"t3d/128/C/heuristic":          "aeb7b14017a2803a31e60a85d47cab480d9987d484d99747332c71930bfecf9e",
	"t3d/128/native/auto":          "2fd61e854bade7c461e1fbb1ceb5381b77429fdfd571fc992f7eed2747bb9585",
	"t3d/128/A/auto":               "3592654c9b22ae0a1fed8706c618d95d706a400224baee526bfa304735d8ccc9",
	"t3d/128/B/auto":               "3592654c9b22ae0a1fed8706c618d95d706a400224baee526bfa304735d8ccc9",
	"t3d/128/C/auto":               "2fd61e854bade7c461e1fbb1ceb5381b77429fdfd571fc992f7eed2747bb9585",
	"paragon/4/native/heuristic":   "0bf3639493cf8654ed0891cb1d153bd5aa1b3267ee4970618a52976ba3567396",
	"paragon/4/A/heuristic":        "46892e7e37746decafda60e894041ae0f1cd0548bc8906e2a1998f1d98b61ad6",
	"paragon/4/B/heuristic":        "46892e7e37746decafda60e894041ae0f1cd0548bc8906e2a1998f1d98b61ad6",
	"paragon/4/C/heuristic":        "0bf3639493cf8654ed0891cb1d153bd5aa1b3267ee4970618a52976ba3567396",
	"paragon/4/native/auto":        "0bf3639493cf8654ed0891cb1d153bd5aa1b3267ee4970618a52976ba3567396",
	"paragon/4/A/auto":             "46892e7e37746decafda60e894041ae0f1cd0548bc8906e2a1998f1d98b61ad6",
	"paragon/4/B/auto":             "46892e7e37746decafda60e894041ae0f1cd0548bc8906e2a1998f1d98b61ad6",
	"paragon/4/C/auto":             "0bf3639493cf8654ed0891cb1d153bd5aa1b3267ee4970618a52976ba3567396",
	"paragon/8/native/heuristic":   "23b71f706002c31b8466dd0d293aae2ddd8947ab5bab1ddc944e2efb89101757",
	"paragon/8/A/heuristic":        "5030dc771d62b3f027e93266a2cc8e05ccb31e70fcf583f20e1bcfa257a20398",
	"paragon/8/B/heuristic":        "5030dc771d62b3f027e93266a2cc8e05ccb31e70fcf583f20e1bcfa257a20398",
	"paragon/8/C/heuristic":        "23b71f706002c31b8466dd0d293aae2ddd8947ab5bab1ddc944e2efb89101757",
	"paragon/8/native/auto":        "23b71f706002c31b8466dd0d293aae2ddd8947ab5bab1ddc944e2efb89101757",
	"paragon/8/A/auto":             "5030dc771d62b3f027e93266a2cc8e05ccb31e70fcf583f20e1bcfa257a20398",
	"paragon/8/B/auto":             "5030dc771d62b3f027e93266a2cc8e05ccb31e70fcf583f20e1bcfa257a20398",
	"paragon/8/C/auto":             "23b71f706002c31b8466dd0d293aae2ddd8947ab5bab1ddc944e2efb89101757",
	"paragon/16/native/heuristic":  "c7a3fdde6611b3179ab19009b003d71bb3a29b2e4f33bb4828759e31dfe0cb9b",
	"paragon/16/A/heuristic":       "80da85d60d811f04a48761f246bfe1c3792020f25e60a8b3399baae5e45add4d",
	"paragon/16/B/heuristic":       "fb14f0b1cad9f3868c9de2388228050908001de68d664a431ad1bbdc1719ab9a",
	"paragon/16/C/heuristic":       "c7a3fdde6611b3179ab19009b003d71bb3a29b2e4f33bb4828759e31dfe0cb9b",
	"paragon/16/native/auto":       "88f26e8127b31500ccd751bad92926cbcc3bbd59662c8bef22c6eb8ffaae8553",
	"paragon/16/A/auto":            "924ab69ff9cff6f762f706fe10f29ec2dea5d571ed5665a4bbe8666d83e47836",
	"paragon/16/B/auto":            "924ab69ff9cff6f762f706fe10f29ec2dea5d571ed5665a4bbe8666d83e47836",
	"paragon/16/C/auto":            "88f26e8127b31500ccd751bad92926cbcc3bbd59662c8bef22c6eb8ffaae8553",
	"paragon/32/native/heuristic":  "2227b0c6e741c66230dbc0d83b69a2371f7f6d0365a0639ab14262ae0dba62ff",
	"paragon/32/A/heuristic":       "0487bca246abe2666bbb26aa2237feebe376d086650dfff4b6a9d29edadf1d4e",
	"paragon/32/B/heuristic":       "7f1bcda9fa6bc88030419d4eea832ec3c79203954e89af86e41565347c7b992c",
	"paragon/32/C/heuristic":       "2227b0c6e741c66230dbc0d83b69a2371f7f6d0365a0639ab14262ae0dba62ff",
	"paragon/32/native/auto":       "6ae1219fb15398c71ce4797bb60982e67818ff099b8d3c348504b53dc77f9b9e",
	"paragon/32/A/auto":            "14bcc8035d82f7d6b47a0102f5505ef1dd8f7507e40cbd99391c7a78fb806045",
	"paragon/32/B/auto":            "14bcc8035d82f7d6b47a0102f5505ef1dd8f7507e40cbd99391c7a78fb806045",
	"paragon/32/C/auto":            "6ae1219fb15398c71ce4797bb60982e67818ff099b8d3c348504b53dc77f9b9e",
	"paragon/64/native/heuristic":  "03fa1d29c836143c7551083099c163a89b99b667bfe50736d8935bd2ac95b82b",
	"paragon/64/A/heuristic":       "07f2dcb907aebc2f16672f99bfaf0d6eb94cd24986aee88e5b3f01426cdc062e",
	"paragon/64/B/heuristic":       "4fcc079a7bae6131882d9960fabba4891209b767568dc90b9ed1ee284329d568",
	"paragon/64/C/heuristic":       "03fa1d29c836143c7551083099c163a89b99b667bfe50736d8935bd2ac95b82b",
	"paragon/64/native/auto":       "908133768ce780eb4f031cbd79d0d3e5b2bad66700b3f98070911481e68c2089",
	"paragon/64/A/auto":            "5a80170823341890b313ce91c3a5d4ae8970de96c7f3346cb00c8a06171a74d8",
	"paragon/64/B/auto":            "5a80170823341890b313ce91c3a5d4ae8970de96c7f3346cb00c8a06171a74d8",
	"paragon/64/C/auto":            "908133768ce780eb4f031cbd79d0d3e5b2bad66700b3f98070911481e68c2089",
	"paragon/128/native/heuristic": "3e68d07dfeeaa304e24c73844ac90996c9f01b07ed9841d9f11defa1be37fbd0",
	"paragon/128/A/heuristic":      "230fddd9a63297dab43a25c68a069e5e7ec3092083a8f5a9fe5214313e859b4e",
	"paragon/128/B/heuristic":      "84bb331f61968fb9c4fe2e732fe55a85b8546d2f809627dd8d82de200d64689f",
	"paragon/128/C/heuristic":      "3e68d07dfeeaa304e24c73844ac90996c9f01b07ed9841d9f11defa1be37fbd0",
	"paragon/128/native/auto":      "220e9c6c6e1eab4e6d4f14a5addc859d48bb7eda2950329a65699d0625275e57",
	"paragon/128/A/auto":           "688178df98cd50b2728ca8fa965b4f68cc8ae2742384f87787846344506fd332",
	"paragon/128/B/auto":           "688178df98cd50b2728ca8fa965b4f68cc8ae2742384f87787846344506fd332",
	"paragon/128/C/auto":           "220e9c6c6e1eab4e6d4f14a5addc859d48bb7eda2950329a65699d0625275e57",
}

// coupledFingerprint hashes the node groups, the ledger by category, the
// coupling seconds and every timeline interval. Floats enter as their
// bits, so equal hashes mean bit-identical results.
func coupledFingerprint(res *CoupledResult) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	f64 := func(x float64) { u64(math.Float64bits(x)) }
	g := res.Groups
	for _, n := range []int{g.Input, g.Output, g.PopExp, g.Compute} {
		u64(uint64(n))
	}
	u64(uint64(res.Ledger.Nodes))
	f64(res.Ledger.Total)
	for _, c := range vm.Categories() {
		f64(res.Ledger.ByCat[c])
	}
	f64(res.CouplingSeconds)
	u64(uint64(len(res.Timeline)))
	for _, iv := range res.Timeline {
		u64(uint64(len(iv.Stage)))
		h.Write([]byte(iv.Stage))
		u64(uint64(iv.Hour))
		f64(iv.Start)
		f64(iv.End)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCoupledReplayPinnedLA24 prices the committed 24-hour LA trace's
// coupled pipeline over the machine x node count x data path x group
// sizing grid and requires every fingerprint to match its pin.
func TestCoupledReplayPinnedLA24(t *testing.T) {
	tr, err := core.LoadTrace(filepath.Join("..", "..", "testdata", "traces", "LA24h.trace"))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.NewPricer(tr)
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(t)
	paths := []struct {
		name    string
		foreign bool
		scn     Scenario
	}{{"native", false, ScenarioA}, {"A", true, ScenarioA}, {"B", true, ScenarioB}, {"C", true, ScenarioC}}
	missing := ""
	points := 0
	for _, name := range []string{"t3e", "t3d", "paragon"} {
		prof, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{4, 8, 16, 32, 64, 128} {
			heuristic, err := GroupsFor(p)
			if err != nil {
				t.Fatal(err)
			}
			auto, err := AutoGroups(pr, model, prof, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, sizing := range []struct {
				name   string
				groups CoupledGroups
			}{{"heuristic", heuristic}, {"auto", auto}} {
				for _, path := range paths {
					key := fmt.Sprintf("%s/%d/%s/%s", name, p, path.name, sizing.name)
					res, err := ReplayCoupledGroups(pr, model, prof, sizing.groups, path.foreign, path.scn)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					points++
					got := coupledFingerprint(res)
					want, ok := coupledPins[key]
					if !ok {
						missing += fmt.Sprintf("\t%q: %q,\n", key, got)
						continue
					}
					if got != want {
						t.Errorf("%s: fingerprint %s, pinned %s", key, got, want)
					}
				}
			}
		}
	}
	if missing != "" {
		t.Errorf("unpinned grid points; their current fingerprints:\n%s", missing)
	}
	if points != len(coupledPins) {
		t.Errorf("grid has %d points, %d pins", points, len(coupledPins))
	}
}
