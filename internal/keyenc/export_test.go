package keyenc

// TotalOrderValues exports totalOrderValues to the agreement test, which
// lives outside the package to reach the packages that import it.
var TotalOrderValues = totalOrderValues
