// Package fixture seeds deliberate violations per analyzer rule so the lint
// unit tests can prove each rule fires (and stays quiet on the clean
// counterparts). It lives under testdata so the go tool never builds it as
// part of the repository.
package fixture
