package main

// pinnedDigests are each workload's output digest at --seed 1: the hex
// SHA-256 of the canonical snapshot encoding of its first job's results
// (serve-hot: the responses to its distinct specs; serve-cold: to its
// first variants; shard-campaign: the merged report). Simulated statistics
// are deterministic, so a change that alters one is a change to what the
// simulator computes, never noise; a run at --seed 1 that disagrees fails.
var pinnedDigests = map[string]string{
	"mbpta-canrdr":   "f74c5645a8be6938c82c4423343db5e75f5708ad5d3217d5671af31d7064b89f",
	"arb-1024":       "4870a37998fd12f6448a2425054dde48a8d2d9811de506706f0f2760f49dc283",
	"serve-hot":      "ce1a982b27012fb600fd712c1e56720d34e128e9f925d758377e9785c013c3ab",
	"serve-cold":     "d546787d91cd9d90700f732e6a2bdb3419c6a521f89034321e1282b9899fee5f",
	"shard-campaign": "28f27ebcf7e79d1a1967bdb73f278a526931f48fd2ec4c4d72a58dfbaf674d0c",
}
