module ppcd/bench

go 1.24

require ppcd v0.0.0

replace ppcd => ../
