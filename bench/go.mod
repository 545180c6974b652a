module asyncmg/bench

go 1.22

require asyncmg v0.0.0

replace asyncmg => ../
