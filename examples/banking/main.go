// Banking: the ATM scenario from the paper's introduction — the Chemical
// Bank incident of February 1994 was a procedural balance-update bug; the
// chronicle model replaces that hand-written code with a declaratively
// defined persistent view.
//
// dollar_balance is an SCA₁ view (IM-Constant maintenance): every deposit
// and withdrawal updates it before the append returns, so the balance check
// that gates the *next* withdrawal always sees current state. The example
// also runs durable, with a WAL and a checkpoint, and proves the balance
// survives a restart.
package main

import (
	"fmt"
	"log"
	"os"

	chronicledb "chronicledb"
)

func main() {
	dir, err := os.MkdirTemp("", "chronicledb-banking-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := chronicledb.Open(chronicledb.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}

	must(db, `CREATE CHRONICLE ledger (acct STRING, kind STRING, amount FLOAT)`)
	must(db, `CREATE RELATION accounts (acct STRING, holder STRING, KEY(acct))`)
	must(db, `CREATE VIEW dollar_balance AS
		SELECT acct, SUM(amount) AS balance, COUNT(*) AS txns
		FROM ledger GROUP BY acct`)
	must(db, `UPSERT INTO accounts VALUES ('chk-001', 'R. Customer')`)

	deposit(db, "chk-001", 500)
	if err := withdraw(db, "chk-001", 120); err != nil {
		log.Fatal(err)
	}
	if err := withdraw(db, "chk-001", 60); err != nil {
		log.Fatal(err)
	}
	// An overdraft attempt is rejected *by consulting the view*, which is
	// current as of the previous transaction.
	if err := withdraw(db, "chk-001", 1000); err != nil {
		fmt.Println("declined:", err)
	} else {
		log.Fatal("overdraft was allowed")
	}
	fmt.Printf("balance after session: $%.2f\n", balance(db, "chk-001"))

	// Durability: checkpoint, another withdrawal (lands in the WAL tail),
	// then a simulated restart.
	if err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if err := withdraw(db, "chk-001", 20); err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	db2, err := chronicledb.Open(chronicledb.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	got := balance(db2, "chk-001")
	fmt.Printf("balance after restart: $%.2f\n", got)
	if got != 300 {
		log.Fatalf("recovery lost money: $%.2f, want $300.00", got)
	}
}

func deposit(db *chronicledb.DB, acct string, amount float64) {
	must(db, fmt.Sprintf(`APPEND INTO ledger VALUES ('%s', 'deposit', %g)`, acct, amount))
	fmt.Printf("deposit  $%7.2f → balance $%.2f\n", amount, balance(db, acct))
}

// withdraw checks the persistent balance view before dispensing — the
// summary query "must be made before the next ATM withdrawal".
func withdraw(db *chronicledb.DB, acct string, amount float64) error {
	if b := balance(db, acct); b < amount {
		return fmt.Errorf("insufficient funds: balance $%.2f < $%.2f", b, amount)
	}
	must(db, fmt.Sprintf(`APPEND INTO ledger VALUES ('%s', 'withdrawal', %g)`, acct, -amount))
	fmt.Printf("withdraw $%7.2f → balance $%.2f\n", amount, balance(db, acct))
	return nil
}

func balance(db *chronicledb.DB, acct string) float64 {
	row, ok, err := db.Lookup("dollar_balance", chronicledb.Str(acct))
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		return 0
	}
	return row[1].AsFloat()
}

func must(db *chronicledb.DB, stmt string) {
	if _, err := db.Exec(stmt); err != nil {
		log.Fatalf("%s: %v", stmt, err)
	}
}
