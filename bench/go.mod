module morphstore/bench

go 1.21

require morphstore v0.0.0

replace morphstore => ../
