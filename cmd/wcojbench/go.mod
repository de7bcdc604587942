module wcoj/cmd/wcojbench

go 1.23

require wcoj v0.0.0

replace wcoj => ../..
