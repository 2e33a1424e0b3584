package main

// Outputs recorded at spybox.DefaultSeed. The simulator is a pure
// function of (seed, scale, arch), so a change that moves any of
// these changed behaviour: it is not an optimisation.
var recordedDigest = map[string]string{
	// sha256 of the report/v1 document of fig12 at small scale.
	"fingerprint": "29987ea8e90e141adebabf50dbbd47c9e7330ef5d722d68b0ba5e34c6c1bf958",
	// sha256 of the report/v1 document of table2 at small scale.
	"modelextract": "f06c60dd8fbc7e1a68f1e2130291e1273cb1997c6f0f060a0485aff70e0f8f90",
}

// recordedCovert is covertResult.String() of a default-seed pass.
const recordedCovert = "l2 2567802/1694532/1661828 hbm 1694532/0 nvlink 2102021 bits 16384 errors 0 sim 16.607888ms rx 4793a3de95fac80172e337c1bf9137dec8b311deae9a6845c9958491bb87f3f7"
