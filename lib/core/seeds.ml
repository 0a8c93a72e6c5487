module Rng = Ftcsn_prng.Rng

let at offset seed = Rng.create ~seed:(seed + offset)
let network = at 0
let faults = at 1
let route = at 2
let check = at 3
let survive = at 4
let degrade = at 5
let critical = at 6
let traffic = at 7
let rare = at 8
let serve = at 9
let curve = survive
let build = at 10
